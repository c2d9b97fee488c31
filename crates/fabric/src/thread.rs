//! The one-process fabric: every image of the map is an OS thread of this
//! process, served by a [`SocketFabric`] whose process plan has a single
//! member. Flags are atomics, puts are relaxed-atomic memcpys with
//! release/acquire edges provided by the flag operations — the own-process
//! arm every socket fleet serves its colocated images with, and no socket,
//! coordinator, shared segment or service thread.
//!
//! This configuration validates the collective algorithms under genuine
//! concurrency (the simulator, being turn-based, cannot exhibit real
//! races) and powers the wall-clock criterion benches. Every operation
//! completes when it returns: a nonblocking put is done at injection, and
//! `put_wait` and `quiet` are memory fences. A flag wait is bounded by
//! [`SocketConfig::flag_wait_timeout`]'s default.

use crate::socket::{SocketConfig, SocketFabric};
use caf_topology::{CostParams, ImageMap, NodeId, ProcId, SoftwareOverheads};
use caf_trace::Tracer;
use std::sync::Arc;

/// Configuration for a [`ThreadFabric`].
#[derive(Clone, Debug)]
pub struct ThreadConfig {
    /// Cost parameters, reported through [`Fabric::cost`] (the collectives
    /// derive their size policy from them); no delay is modeled.
    ///
    /// [`Fabric::cost`]: crate::Fabric::cost
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

/// The real-threads fabric: a [`SocketFabric`] hosting every image in
/// this process. See the module docs.
pub type ThreadFabric = SocketFabric;

impl SocketFabric {
    /// A fabric whose one process hosts every image of `map`.
    pub fn new(map: ImageMap, cfg: ThreadConfig) -> Arc<Self> {
        let ThreadConfig {
            cost,
            overheads,
            tracer,
        } = cfg;
        let cfg = SocketConfig {
            cost,
            overheads,
            tracer,
            ..SocketConfig::default()
        };
        Self::one_process(map, cfg)
    }

    /// [`SocketFabric::new`] with every socket option at hand.
    pub(crate) fn one_process(map: ImageMap, cfg: SocketConfig) -> Arc<Self> {
        let every = (0..map.n_images()).map(ProcId).collect();
        Self::build(map, vec![(NodeId(0), every)], 0, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::run_spmd;
    use crate::{Fabric, FlagId, SegmentId};
    use caf_topology::{presets, Placement};
    use caf_trace::EventKind;
    use std::time::Duration;

    const SPARE_FLAG: FlagId = FlagId(2);
    #[allow(dead_code)]
    const SPARE_FLAG2: FlagId = FlagId(3);
    const BSEG: SegmentId = crate::bootstrap::SEG;

    fn fabric(nodes: usize, cores: usize, images: usize) -> Arc<ThreadFabric> {
        let map = ImageMap::new(presets::mini(nodes, cores), images, &Placement::Packed);
        ThreadFabric::new(map, ThreadConfig::default())
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

    /// One process hosts both nodes of the map: what crosses the map's
    /// node boundary counts, and traces, as inter-node all the same.
    #[test]
    fn stats_split_by_node() {
        let map = ImageMap::new(presets::mini(2, 2), 4, &Placement::Packed);
        let tracer = Tracer::for_images(4);
        let cfg = ThreadConfig {
            tracer: tracer.clone(),
            ..ThreadConfig::default()
        };
        let f = ThreadFabric::new(map, cfg);
        f.alloc_segment(ProcId(0), 16);
        let (me, seg) = (ProcId(0), SegmentId(0));
        // Intra, inter, then self: uncounted.
        for dst in [ProcId(1), ProcId(2), me] {
            f.put(me, dst, seg, 0, &[1u8; 4]);
            f.put_nb(me, dst, seg, 8, &[1u8; 8]);
            f.get(me, dst, seg, 0, &mut [0u8; 2]);
            f.flag_add(me, dst, SPARE_FLAG, 1);
            f.put_flag(me, dst, seg, 16, &[1u8; 4], SPARE_FLAG, 1);
        }
        let s = f.stats().snapshot();
        assert_eq!(
            (s.puts_intra, s.puts_inter),
            (3, 3),
            "put, put_nb, put_flag"
        );
        assert_eq!((s.puts_nb_injected, s.puts_nb_completed), (2, 2));
        assert_eq!((s.gets_intra, s.gets_inter), (1, 1));
        assert_eq!((s.flags_intra, s.flags_inter), (2, 2), "flag_add, put_flag");
        assert_eq!((s.bytes_intra, s.bytes_inter), (18, 18));
        let kinds = [
            EventKind::Put,
            EventKind::PutNb,
            EventKind::Get,
            EventKind::FlagAdd,
            EventKind::Put,
            EventKind::FlagAdd,
        ];
        let ops = tracer.events_of(me.index());
        assert_eq!(ops.len(), 3 * kinds.len(), "{ops:?}");
        for (ev, (k, kind)) in ops.iter().zip(kinds.iter().cycle().enumerate()) {
            assert_eq!(ev.kind, *kind, "{ev:?}");
            match k / kinds.len() {
                0 => assert!(ev.is_intra() && !ev.is_self(), "{ev:?}"),
                1 => assert!(!ev.is_intra() && !ev.is_self(), "{ev:?}"),
                _ => assert!(ev.is_self(), "{ev:?}"),
            }
        }
        let delivered = tracer.events_of(4);
        let intra: Vec<bool> = delivered.iter().map(|e| e.is_intra()).collect();
        assert_eq!(
            intra,
            [true, true, false, false, true, true],
            "{delivered:?}"
        );
    }

    /// A threaded run's flag wait is bounded as a fleet's is: a waiter
    /// whose flag never comes panics naming the image and the flag.
    #[test]
    fn a_flag_wait_that_never_ends_panics_naming_image_and_flag() {
        let map = ImageMap::new(presets::mini(1, 2), 2, &Placement::Packed);
        let cfg = SocketConfig {
            flag_wait_timeout: Duration::from_millis(200),
            ..SocketConfig::default()
        };
        let f = SocketFabric::one_process(map, cfg);
        let t0 = std::time::Instant::now();
        let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.flag_wait_ge(ProcId(1), SPARE_FLAG, 1)
        }));
        let msg = crate::panic_message(waited.expect_err("bounded").as_ref());
        assert!(
            msg.contains("image 2 flag wait timed out after 200ms (flag2 = 0 < 1)"),
            "{msg}"
        );
        assert!(t0.elapsed() < Duration::from_secs(5));
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
