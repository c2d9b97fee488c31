//! A real shared-memory fabric: images are OS threads, flags are atomics,
//! puts are relaxed-atomic memcpys with release/acquire edges provided by
//! the flag operations. Windows and flag cells live in the same
//! [`seg::Tables`](crate::seg) a socket process hosts its images in, and
//! ops count themselves in their image's lane of the [`FabricStats`]: an
//! op's cost is its memory operation.
//!
//! This fabric validates the collective algorithms under genuine concurrency
//! (the simulator, being turn-based, cannot exhibit real races) and powers
//! the wall-clock criterion benches. Every operation completes when it
//! returns: a nonblocking put is done at injection, and `put_wait` and
//! `quiet` are memory fences.

use crate::am::AmOp;
use crate::seg::{
    bump_flag, Amo, FlagCell, FlagId, FlagWaiters, ImageTables, Poison, SegmentId, SharedBytes,
    Span, Tables, Window,
};
use crate::stats::{FabricStats, Lane};
use crate::{Fabric, PutToken};
use caf_topology::{CostParams, ImageMap, ProcId, SoftwareOverheads};
use caf_trace::{Event, EventKind, Tracer};
use parking_lot::Mutex;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for a [`ThreadFabric`].
#[derive(Clone, Debug)]
pub struct ThreadConfig {
    /// Cost parameters, reported through [`Fabric::cost`] (the collectives
    /// derive their size policy from them); no delay is modeled.
    pub cost: CostParams,
    /// Software overheads; kept for symmetry with the simulator (the thread
    /// fabric does not inject per-op CPU overhead — real instructions cost
    /// real time).
    pub overheads: SoftwareOverheads,
    /// Trace sink. The default [`Tracer::off`] records nothing; an enabled
    /// tracer captures every fabric operation with wall-clock stamps
    /// (nanoseconds since fabric creation).
    pub tracer: Tracer,
}

impl Default for ThreadConfig {
    fn default() -> Self {
        Self {
            cost: CostParams::default(),
            overheads: SoftwareOverheads::NONE,
            tracer: Tracer::off(),
        }
    }
}

/// The real-threads fabric. See the module docs.
pub struct ThreadFabric {
    map: ImageMap,
    cfg: ThreadConfig,
    stats: FabricStats,
    start: Instant,
    /// Every image's windows and flag cells (all heap), resolved through
    /// the issuing thread's view of them.
    tables: Tables,
    waiters: FlagWaiters,
    /// Set when an image died; waits panic instead of spinning forever.
    poisoned: Poison,
    /// Serializes system-ring trace records (the ring is single-writer;
    /// unlike the simulator, thread-fabric deliveries race each other).
    trace_sys_lock: Mutex<()>,
}

impl ThreadFabric {
    /// Build a fabric for the images of `map`.
    pub fn new(map: ImageMap, cfg: ThreadConfig) -> Arc<Self> {
        let n = map.n_images();
        let images: Vec<ProcId> = (0..n).map(ProcId).collect();
        let tables = Tables::new(n, &images, 0);
        for image in tables.hosted() {
            // Bootstrap resources: segment 0 and the control flags.
            let boot = SharedBytes::new(n * crate::bootstrap::SLOT_BYTES);
            image.push_segment(boot.len(), |_| Window::Heap(Arc::new(boot)));
            image.push_flags(crate::bootstrap::NUM_FLAGS, |_| FlagCell::heap());
        }
        Arc::new(Self {
            map,
            cfg,
            stats: FabricStats::with_lanes(n),
            start: Instant::now(),
            tables,
            waiters: FlagWaiters::default(),
            poisoned: Poison::default(),
            trace_sys_lock: Mutex::new(()),
        })
    }

    /// Convenience constructor with default configuration.
    pub fn with_defaults(map: ImageMap) -> Arc<Self> {
        Self::new(map, ThreadConfig::default())
    }

    /// Image `me`'s tables, to allocate in.
    fn image(&self, me: ProcId) -> &ImageTables {
        (self.tables.image(me.index())).unwrap_or_else(|e| panic!("{e}"))
    }

    fn window(&self, img: usize, seg: SegmentId) -> Rc<Window> {
        (self.tables.window(img, seg.0)).unwrap_or_else(|e| panic!("{e}"))
    }

    fn flag_cell(&self, img: usize, flag: FlagId) -> Rc<FlagCell> {
        (self.tables.flag(img, flag.0)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Image `me`'s counter lane: where the ops it issues count themselves.
    #[inline]
    fn lane(&self, me: ProcId) -> Lane<'_> {
        self.stats.lane(me.index())
    }

    /// Wall timestamp for trace records, or 0 when tracing is off — spares
    /// the clock read on every op in untraced builds (with the `trace`
    /// feature off, `enabled()` is a constant `false` and this folds away).
    #[inline]
    fn trace_now(&self) -> u64 {
        if self.cfg.tracer.enabled() {
            self.start.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Record a span that started at `t0` and ends now, tagging locality
    /// from the `me`/`peer` placement.
    #[inline]
    fn trace_span(&self, kind: EventKind, me: ProcId, peer: ProcId, t0: u64, bytes: u64) {
        if !self.cfg.tracer.enabled() {
            return;
        }
        let t1 = self.trace_now();
        let ev = Event::span(kind, t0, t1.saturating_sub(t0))
            .a(peer.index() as u64)
            .b(bytes);
        self.cfg.tracer.record(
            me.index(),
            if me == peer {
                ev.self_target()
            } else {
                ev.intra(self.map.colocated(me, peer))
            },
        );
    }
}

impl Fabric for ThreadFabric {
    fn n_images(&self) -> usize {
        self.map.n_images()
    }

    fn image_map(&self) -> &ImageMap {
        &self.map
    }

    fn cost(&self) -> &CostParams {
        &self.cfg.cost
    }

    fn overheads(&self) -> &SoftwareOverheads {
        &self.cfg.overheads
    }

    fn stats(&self) -> &FabricStats {
        &self.stats
    }

    fn tracer(&self) -> &Tracer {
        &self.cfg.tracer
    }

    fn alloc_segment(&self, me: ProcId, bytes: usize) -> SegmentId {
        (self.image(me)).push_segment(bytes, |_| Window::Heap(Arc::new(SharedBytes::new(bytes))))
    }

    fn alloc_flags(&self, me: ProcId, count: usize) -> FlagId {
        self.image(me).push_flags(count, |_| FlagCell::heap())
    }

    fn put(&self, me: ProcId, dst: ProcId, seg: SegmentId, offset: usize, bytes: &[u8]) {
        let intra = self.map.colocated(me, dst);
        if me != dst {
            self.lane(me).record_put(intra, bytes.len());
        }
        let t0 = self.trace_now();
        self.window(dst.index(), seg).write(offset, bytes);
        self.trace_span(EventKind::Put, me, dst, t0, bytes.len() as u64);
    }

    fn am_deliver(&self, me: ProcId, dst: ProcId, ops: &[AmOp]) {
        let t0 = self.trace_now();
        // The flag wake pass runs once, after every op has applied.
        let bumped = std::cell::Cell::new(false);
        crate::am::apply(
            ops,
            |seg| Span::Own(self.window(dst.index(), seg)),
            |flag, delta| {
                let cell = self.flag_cell(dst.index(), flag);
                bump_flag(cell.cell(), dst.index(), flag, delta);
                bumped.set(true);
            },
        );
        let wire: u64 = ops.iter().map(|op| op.wire_len() as u64).sum();
        self.trace_span(EventKind::Put, me, dst, t0, wire);
        if bumped.get() {
            self.waiters.wake();
        }
    }

    fn put_nb(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
    ) -> PutToken {
        // Copy now (relaxed stores; the release edge comes from the
        // subsequent flag_add or fence).
        let intra = self.map.colocated(me, dst);
        let t0 = self.trace_now();
        self.window(dst.index(), seg).write(offset, bytes);
        if me == dst {
            self.trace_span(EventKind::PutNb, me, dst, t0, bytes.len() as u64);
            return PutToken::DONE;
        }
        let lane = self.lane(me);
        lane.record_put_nb(intra, bytes.len());
        // On shared memory the payload is physically resident as soon as the
        // copy returns; completion == injection here (the simulator is where
        // the two genuinely diverge).
        lane.record_put_nb_complete();
        self.trace_span(EventKind::PutNb, me, dst, t0, bytes.len() as u64);
        PutToken::DONE
    }

    fn get(&self, me: ProcId, src: ProcId, seg: SegmentId, offset: usize, out: &mut [u8]) {
        let intra = self.map.colocated(me, src);
        if me != src {
            self.lane(me).record_get(intra, out.len());
        }
        let t0 = self.trace_now();
        self.window(src.index(), seg).read(offset, out);
        self.trace_span(EventKind::Get, me, src, t0, out.len() as u64);
    }

    fn amo_fetch_add_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        delta: u64,
    ) -> u64 {
        self.lane(me).record_amo();
        let t0 = self.trace_now();
        let old = (self.window(target.index(), seg)).amo(offset, Amo::Add(delta));
        self.trace_span(EventKind::AmoFetchAdd, me, target, t0, offset as u64);
        old
    }

    fn amo_cas_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        expected: u64,
        new: u64,
    ) -> u64 {
        self.lane(me).record_amo();
        let t0 = self.trace_now();
        let window = self.window(target.index(), seg);
        let old = window.amo(offset, Amo::Cas { expected, new });
        self.trace_span(EventKind::AmoCas, me, target, t0, offset as u64);
        old
    }

    fn flag_add(&self, me: ProcId, target: ProcId, flag: FlagId, delta: u64) {
        let intra = self.map.colocated(me, target);
        if me != target {
            self.lane(me).record_flag(intra);
        }
        let t0 = self.trace_now();
        let cell = self.flag_cell(target.index(), flag);
        bump_flag(cell.cell(), target.index(), flag, delta);
        if self.cfg.tracer.enabled() {
            // Delivery is synchronous on shared memory: the add and its
            // landing are one instant. Record both views so the critical-
            // path walk works identically on thread traces.
            let t1 = self.trace_now();
            let ev = Event::instant(EventKind::FlagAdd, t0)
                .a(target.index() as u64)
                .b(flag.0 as u64)
                .c(delta)
                .d(t1);
            self.cfg.tracer.record(
                me.index(),
                if me == target {
                    ev.self_target()
                } else {
                    ev.intra(intra)
                },
            );
            let _g = self.trace_sys_lock.lock();
            self.cfg.tracer.record_system(
                Event::instant(EventKind::FlagDeliver, t1)
                    .a(me.index() as u64)
                    .b(flag.0 as u64)
                    .c(t0)
                    .d(target.index() as u64)
                    .intra(intra || me == target),
            );
        }
        self.waiters.wake();
    }

    fn flag_wait_ge(&self, me: ProcId, flag: FlagId, at_least: u64) {
        self.lane(me).record_flag_wait();
        let t0 = self.trace_now();
        let cell = self.flag_cell(me.index(), flag);
        (self.waiters).wait_ge(cell.cell(), at_least, |_| {
            self.poisoned.check(me, "flag wait")
        });
        if self.cfg.tracer.enabled() {
            let t1 = self.trace_now();
            self.cfg.tracer.record(
                me.index(),
                Event::span(EventKind::FlagWait, t0, t1.saturating_sub(t0))
                    .a(flag.0 as u64)
                    .b(at_least),
            );
        }
    }

    fn flag_read(&self, me: ProcId, flag: FlagId) -> u64 {
        (self.flag_cell(me.index(), flag).cell()).load(Ordering::Acquire)
    }

    fn quiet(&self, _me: ProcId) {
        // Every operation completed when it returned; the fence keeps the
        // memory-model promise explicit. `put_wait` is this too.
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    fn compute(&self, _me: ProcId, _ns: u64) {
        // Real computation takes real wall time; nothing to account.
    }

    fn now_ns(&self, _me: ProcId) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn image_done(&self, _me: ProcId) {}

    fn poison(&self, msg: &str) {
        self.poisoned.set(msg);
        self.waiters.wake();
    }

    fn health(&self) -> Result<(), crate::RecoveryError> {
        self.poisoned.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::run_spmd;
    use caf_topology::{presets, Placement};
    use std::time::Duration;

    const SPARE_FLAG: FlagId = FlagId(2);
    #[allow(dead_code)]
    const SPARE_FLAG2: FlagId = FlagId(3);
    const BSEG: SegmentId = crate::bootstrap::SEG;

    fn fabric(nodes: usize, cores: usize, images: usize) -> Arc<ThreadFabric> {
        let map = ImageMap::new(presets::mini(nodes, cores), images, &Placement::Packed);
        ThreadFabric::with_defaults(map)
    }

    #[test]
    fn put_then_flag_then_read_many_rounds() {
        // Release/acquire discipline: receiver must always see the payload
        // that the flag announces. Repeated to give races a chance.
        let f = fabric(1, 2, 2);
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            for round in 1..=200u64 {
                if me == ProcId(0) {
                    f2.put(me, ProcId(1), BSEG, 0, &round.to_ne_bytes());
                    f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
                    // Wait for ack before overwriting.
                    f2.flag_wait_ge(me, SPARE_FLAG2, round);
                } else {
                    f2.flag_wait_ge(me, SPARE_FLAG, round);
                    let mut out = [0u8; 8];
                    f2.get(me, me, BSEG, 0, &mut out);
                    assert_eq!(u64::from_ne_bytes(out), round);
                    f2.flag_add(me, ProcId(0), SPARE_FLAG2, 1);
                }
            }
            f2.image_done(me);
        });
    }

    #[test]
    fn concurrent_amo_increments_are_exact() {
        let n = 4;
        let f = fabric(1, n, n);
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            for _ in 0..1000 {
                f2.amo_fetch_add_u64(me, ProcId(0), BSEG, 0, 1);
            }
            f2.image_done(me);
        });
        // Check the final value from outside.
        let mut out = [0u8; 8];
        f.window(0, BSEG).read(0, &mut out);
        assert_eq!(u64::from_ne_bytes(out), 4000);
    }

    #[test]
    fn parked_waiter_is_woken() {
        let f = fabric(1, 2, 2);
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                // Sleep long enough that image 1 parks before the add.
                std::thread::sleep(Duration::from_millis(20));
                f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            } else {
                f2.flag_wait_ge(me, SPARE_FLAG, 1);
            }
            f2.image_done(me);
        });
    }

    #[test]
    fn stats_split_by_node() {
        let f = fabric(2, 2, 4);
        f.alloc_segment(ProcId(0), 16);
        let seg = SegmentId(0);
        f.put(ProcId(0), ProcId(1), seg, 0, &[1u8; 4]); // intra
        f.put(ProcId(0), ProcId(2), seg, 0, &[1u8; 4]); // inter
        f.put(ProcId(0), ProcId(0), seg, 0, &[1u8; 4]); // self: uncounted
        let s = f.stats().snapshot();
        assert_eq!(s.puts_intra, 1);
        assert_eq!(s.puts_inter, 1);
        assert_eq!(s.bytes_intra, 4);
        assert_eq!(s.bytes_inter, 4);
    }

    #[test]
    fn flag_read_does_not_block() {
        let f = fabric(1, 1, 1);
        let flag = f.alloc_flags(ProcId(0), 2);
        assert_eq!(f.flag_read(ProcId(0), flag), 0);
        f.flag_add(ProcId(0), ProcId(0), flag.nth(1), 5);
        assert_eq!(f.flag_read(ProcId(0), flag.nth(1)), 5);
        assert_eq!(f.flag_read(ProcId(0), flag), 0);
    }

    #[test]
    #[should_panic(expected = "has no seg")]
    fn unknown_segment_panics() {
        let f = fabric(1, 1, 1);
        f.put(ProcId(0), ProcId(0), SegmentId(3), 0, &[0]);
    }

    /// A view another thread keeps does not hide a table's growth: the
    /// sender resolves one of image 1's flags (its view of that image is
    /// filled), image 1 then allocates more, and the sender reaches the new
    /// ones — and the old one — through the same view.
    #[test]
    fn a_table_grown_behind_a_cached_view_is_seen() {
        use std::sync::mpsc::channel;
        let f = fabric(1, 2, 2);
        let (grown_tx, grown_rx) = channel::<(FlagId, SegmentId)>();
        let (cached_tx, cached_rx) = channel::<()>();
        let sender = {
            let f = f.clone();
            std::thread::spawn(move || {
                let me = ProcId(0);
                f.flag_add(me, ProcId(1), SPARE_FLAG, 1);
                f.put(me, ProcId(1), BSEG, 0, &[1; 8]);
                cached_tx.send(()).expect("main is waiting");
                let (flag, seg) = grown_rx.recv().expect("image 1 allocated");
                f.flag_add(me, ProcId(1), flag.nth(1), 5);
                f.put(me, ProcId(1), seg, 24, &[7; 8]);
                f.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            })
        };
        cached_rx.recv().expect("sender resolved");
        let flag = f.alloc_flags(ProcId(1), 2);
        let seg = f.alloc_segment(ProcId(1), 32);
        grown_tx.send((flag, seg)).expect("sender is waiting");
        sender.join().expect("sender");
        assert_eq!(f.flag_read(ProcId(1), flag.nth(1)), 5);
        assert_eq!(f.flag_read(ProcId(1), SPARE_FLAG), 2);
        let mut out = [0u8; 8];
        f.get(ProcId(1), ProcId(1), seg, 24, &mut out);
        assert_eq!(out, [7; 8]);
    }

    /// One thread's views are per fabric: two fabrics whose tables differ
    /// under the same ids, used in turn, each resolve their own.
    #[test]
    fn two_fabrics_on_one_thread_keep_their_own_entries() {
        let (small, large) = (fabric(1, 1, 1), fabric(1, 1, 1));
        let me = ProcId(0);
        let seg = small.alloc_segment(me, 16);
        assert_eq!(large.alloc_segment(me, 64), seg);
        for round in 0..3u8 {
            large.put(me, me, seg, 40, &[round; 8]);
            small.put(me, me, seg, 8, &[round + 100; 8]);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                small.put(me, me, seg, 40, &[0xEE; 8])
            }));
            let msg = crate::panic_message(r.expect_err("past the small segment").as_ref());
            assert!(msg.contains("exceeds segment of 16 bytes"), "{msg}");
            let mut out = [0u8; 8];
            large.get(me, me, seg, 40, &mut out);
            assert_eq!(out, [round; 8], "the other fabric's put landed here");
            small.get(me, me, seg, 8, &mut out);
            assert_eq!(out, [round + 100; 8]);
        }
        // Flags likewise: the same id, two cells.
        small.flag_add(me, me, SPARE_FLAG, 3);
        assert_eq!(large.flag_read(me, SPARE_FLAG), 0);
        assert_eq!(small.flag_read(me, SPARE_FLAG), 3);
    }

    #[test]
    fn wall_clock_advances() {
        let f = fabric(1, 1, 1);
        let a = f.now_ns(ProcId(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(f.now_ns(ProcId(0)) > a);
    }
}
