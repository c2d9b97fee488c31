//! Hosted-image stepping: run many simulated images from one driver
//! thread.
//!
//! The threaded fabric ([`crate::sim::SimFabric`] + [`crate::spmd::run_spmd`])
//! dedicates an OS thread to every image, which tops out around a few
//! thousand images per process — far short of the fleet sizes the event
//! core can simulate. This module adds a *cooperative* driver:
//! programs are expressed as resumable state machines ([`StepProgram`])
//! yielding one fabric op at a time ([`StepOp`]), and [`run_stepped`]
//! executes the whole fleet on the caller's thread by always advancing the
//! image that holds the commit turn (the scheduler argmin). A million
//! hosted images is then just a million small structs, not a million
//! stacks.
//!
//! # Where the programs come from
//!
//! Nobody writes a collective as a state machine. Code written against
//! [`Fabric`] — `caf-collectives`' barrier, broadcast and reduction bodies
//! — is run against a [`Script`], a `Fabric` that *writes down* each call
//! as a [`StepOp`] and returns at once; the hosted program hands the
//! recorded ops to [`run_stepped`] one at a time and runs the body again
//! when they are used up. That is sound exactly when the body's op sequence
//! does not depend on anything the fabric would have answered, so the
//! `Script` panics — naming the call and the image — on every call whose
//! result could steer its caller (a remote `get`, `flag_read`, an AMO, a
//! clock read, an active-message flush). DESIGN.md, "one definition, two
//! drivers", has the invariant; `caf_collectives::hosted` is the program.
//!
//! # Schedule equivalence with the threaded driver
//!
//! Both drivers read one queue ([`crate::evq`]) that holds the pending
//! events and every alive image's commit turn, keyed `(time, event before
//! turn, prio, rank)` over post-chaos-charge clocks: whatever is at its
//! head happens next. So they commit fabric ops in the same order and
//! produce bit-identical virtual times, flag values, and traces:
//!
//! - Turn-taking ops (puts / signalled puts / reads / flag-add / wait
//!   entry) charge their chaos delay when they become *pending* — exactly
//!   what the threaded `lock_turn` does on call entry — and commit only
//!   when the image's turn is at the head of the queue (nobody earlier, no
//!   event due). In the threaded driver an image whose charge has not
//!   landed yet can hold peers back for a moment of wall-clock time, but
//!   never changes who commits next: that is always the head over the
//!   *charged* keys, which is what this driver reads directly.
//! - Local ops (compute, retirement) touch only the issuing image's own
//!   clock and alive-set membership. The threaded driver applies them at
//!   an arbitrary wall-clock point; applying them at the argmin turn
//!   instead is observationally equivalent because they neither read nor
//!   reserve shared resources.
//!
//! The parity tests at the bottom hold `run_stepped` to
//! [`run_program_spmd`] (the same programs on real threads) with and
//! without chaos, and the one-queue core to the legacy global heap with
//! its O(n) scans ([`crate::SimConfig::legacy_queue`]);
//! `caf-collectives`' `hosted_parity` test holds recorded collectives to
//! the same bodies called from threads.

use crate::am::AmOp;
use crate::seg::{FlagId, SegmentId};
use crate::sim::{SimCore, SimFabric};
use crate::spmd::run_spmd;
use crate::stats::FabricStats;
use crate::{Fabric, PutToken};
use caf_topology::{CostParams, ImageMap, ProcId, SoftwareOverheads};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// One fabric operation yielded by a hosted image program.
///
/// Ops carry sizes, not data: what a [`StepOp::PutSeg`] / [`StepOp::PutNb`]
/// / [`StepOp::PutFlag`] lands and what a [`StepOp::Read`] sees are
/// unspecified bytes. A program
/// whose next op depends on them cannot be hosted (see the module docs).
/// The type stays at 32 bytes — the driver holds one per hosted image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOp {
    /// Blocking 8-byte put of `val` into `dst`'s bootstrap segment
    /// ([`crate::bootstrap::SEG`]).
    Put {
        /// Destination image rank.
        dst: usize,
        /// Byte offset inside the bootstrap segment.
        offset: usize,
        /// Value written (native-endian).
        val: u64,
    },
    /// Blocking put of `len` bytes into `dst`'s segment `seg`.
    PutSeg {
        /// Destination image rank.
        dst: usize,
        /// Byte offset inside the segment.
        offset: usize,
        /// Segment id on `dst`.
        seg: u32,
        /// Payload bytes.
        len: u32,
    },
    /// Nonblocking put ([`Fabric::put_nb`]) of `len` bytes into `dst`'s
    /// segment `seg`.
    PutNb {
        /// Destination image rank.
        dst: usize,
        /// Byte offset inside the segment.
        offset: usize,
        /// Segment id on `dst`.
        seg: u32,
        /// Payload bytes.
        len: u32,
    },
    /// Read `len` bytes of the image's own segment `seg` (a self-`get`).
    Read {
        /// Byte offset inside the segment.
        offset: usize,
        /// Segment id on this image.
        seg: u32,
        /// Bytes read.
        len: u32,
    },
    /// A signalled put ([`Fabric::put_flag`]): `len` bytes into `dst`'s
    /// segment `seg`, then `delta` added to `dst`'s flag `flag`. Its fields
    /// are narrow so the op stays at 32 bytes.
    PutFlag {
        /// Destination image rank.
        dst: u32,
        /// Byte offset inside the segment.
        offset: u32,
        /// Segment id on `dst`.
        seg: u32,
        /// Payload bytes.
        len: u32,
        /// Flag id on `dst`.
        flag: u32,
        /// Increment.
        delta: u32,
    },
    /// Add `delta` to `dst`'s accumulating sync flag.
    FlagAdd {
        /// Target image rank.
        dst: usize,
        /// Which flag.
        flag: FlagId,
        /// Increment.
        delta: u64,
    },
    /// Block until the local flag reaches `at_least` (cumulative).
    WaitGe {
        /// Which flag.
        flag: FlagId,
        /// Cumulative threshold.
        at_least: u64,
    },
    /// Spin the local clock forward by `ns` of modeled computation.
    Compute {
        /// Unscaled compute nanoseconds.
        ns: u64,
    },
    /// Retire this image; the program yields nothing further.
    Done,
}

impl StepOp {
    /// Local ops (compute, retirement) commit without a turn.
    fn takes_turn(&self) -> bool {
        !matches!(self, StepOp::Compute { .. } | StepOp::Done)
    }
}

/// A resumable hosted-image program: a state machine that yields the
/// image's next fabric op each time it is resumed. After yielding
/// [`StepOp::Done`] it is never polled again.
pub trait StepProgram {
    /// The image's next operation.
    fn next(&mut self) -> StepOp;
}

/// A [`Fabric`] that writes a program down instead of running it: each
/// `put` / `put_nb` / `put_flag` / self-`get` / `flag_add` /
/// `flag_wait_ge` / `compute` of image `me` is appended to `me`'s tape as
/// one [`StepOp`] and returns at once (a read fills `out` with zeros).
/// Machine, cost model, overheads and counters are those of the
/// [`SimFabric`] it fronts, on which the taped ops are later committed by
/// [`run_stepped`].
///
/// Everything else **panics, naming the call and the image**: a call whose
/// answer could steer the caller (remote `get`, `flag_read`, AMOs, `now_ns`,
/// `put_test`), one whose cost depends on when it happens rather than on
/// the program (`am_deliver`, `quiet`, `put_wait`), and `alloc_*` — a
/// hosted team's resources are allocated on the `SimFabric` up front, in
/// one order on every image, because an id handed out here would be a
/// value read. The tracer is off: spans of the calling layer need a clock,
/// and the fabric-level records are written when the ops commit.
pub struct Script {
    sim: Arc<SimFabric>,
    tapes: Vec<Mutex<VecDeque<StepOp>>>,
}

impl Script {
    /// A recorder for the images of `sim`.
    pub fn new(sim: Arc<SimFabric>) -> Arc<Self> {
        let tapes = (0..sim.n_images()).map(|_| Mutex::default()).collect();
        Arc::new(Self { sim, tapes })
    }

    /// Image `me`'s oldest recorded op not yet taken.
    pub fn pop(&self, me: ProcId) -> Option<StepOp> {
        self.tapes[me.index()].lock().pop_front()
    }

    fn record(&self, me: ProcId, op: StepOp) {
        self.tapes[me.index()].lock().push_back(op);
    }

    fn refuse(&self, me: ProcId, call: &str) -> ! {
        panic!(
            "hosted image {}: {call} cannot be recorded — its effect depends on an \
             answer or a time the recorder does not have (DESIGN.md, \"one \
             definition, two drivers\")",
            me.index()
        )
    }

    /// `(segment, length)` as a [`StepOp`] carries them.
    fn sized(&self, me: ProcId, call: &str, seg: SegmentId, len: usize) -> (u32, u32) {
        match (u32::try_from(seg.0), u32::try_from(len)) {
            (Ok(seg), Ok(len)) => (seg, len),
            _ => panic!(
                "hosted image {}: {call} of {len} bytes to {seg:?} does not fit a StepOp",
                me.index()
            ),
        }
    }

    /// A [`StepOp::PutFlag`] field.
    fn narrow(&self, me: ProcId, field: &str, v: u64) -> u32 {
        u32::try_from(v).unwrap_or_else(|_| {
            panic!(
                "hosted image {}: put_flag's {field} {v} does not fit a StepOp",
                me.index()
            )
        })
    }
}

impl Fabric for Script {
    fn n_images(&self) -> usize {
        self.sim.n_images()
    }

    fn image_map(&self) -> &ImageMap {
        self.sim.image_map()
    }

    fn cost(&self) -> &CostParams {
        self.sim.cost()
    }

    fn overheads(&self) -> &SoftwareOverheads {
        self.sim.overheads()
    }

    fn stats(&self) -> &FabricStats {
        self.sim.stats()
    }

    fn alloc_segment(&self, me: ProcId, _bytes: usize) -> SegmentId {
        self.refuse(me, "alloc_segment")
    }

    fn alloc_flags(&self, me: ProcId, _count: usize) -> FlagId {
        self.refuse(me, "alloc_flags")
    }

    fn put(&self, me: ProcId, dst: ProcId, seg: SegmentId, offset: usize, bytes: &[u8]) {
        let (dst, (seg, len)) = (dst.index(), self.sized(me, "put", seg, bytes.len()));
        self.record(
            me,
            StepOp::PutSeg {
                dst,
                offset,
                seg,
                len,
            },
        );
    }

    fn put_nb(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
    ) -> PutToken {
        let (dst, (seg, len)) = (dst.index(), self.sized(me, "put_nb", seg, bytes.len()));
        self.record(
            me,
            StepOp::PutNb {
                dst,
                offset,
                seg,
                len,
            },
        );
        // Nothing may be asked of it: `put_test` and `put_wait` refuse.
        PutToken::DONE
    }

    fn put_test(&self, me: ProcId, _token: PutToken) -> bool {
        self.refuse(me, "put_test")
    }

    fn put_wait(&self, me: ProcId, _token: PutToken) {
        self.refuse(me, "put_wait")
    }

    fn get(&self, me: ProcId, src: ProcId, seg: SegmentId, offset: usize, out: &mut [u8]) {
        if src != me {
            self.refuse(me, "get from another image");
        }
        let (seg, len) = self.sized(me, "get", seg, out.len());
        self.record(me, StepOp::Read { offset, seg, len });
        out.fill(0);
    }

    fn amo_fetch_add_u64(&self, me: ProcId, _: ProcId, _: SegmentId, _: usize, _: u64) -> u64 {
        self.refuse(me, "amo_fetch_add_u64")
    }

    fn amo_cas_u64(&self, me: ProcId, _: ProcId, _: SegmentId, _: usize, _: u64, _: u64) -> u64 {
        self.refuse(me, "amo_cas_u64")
    }

    fn flag_add(&self, me: ProcId, target: ProcId, flag: FlagId, delta: u64) {
        let dst = target.index();
        self.record(me, StepOp::FlagAdd { dst, flag, delta });
    }

    fn put_flag(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
        flag: FlagId,
        delta: u64,
    ) {
        let (seg, len) = self.sized(me, "put_flag", seg, bytes.len());
        let op = StepOp::PutFlag {
            dst: self.narrow(me, "destination", dst.index() as u64),
            offset: self.narrow(me, "offset", offset as u64),
            seg,
            len,
            flag: self.narrow(me, "flag", flag.0 as u64),
            delta: self.narrow(me, "delta", delta),
        };
        self.record(me, op);
    }

    fn flag_wait_ge(&self, me: ProcId, flag: FlagId, at_least: u64) {
        self.record(me, StepOp::WaitGe { flag, at_least });
    }

    fn flag_read(&self, me: ProcId, _flag: FlagId) -> u64 {
        self.refuse(me, "flag_read")
    }

    fn am_deliver(&self, me: ProcId, _dst: ProcId, _ops: &[AmOp]) {
        self.refuse(me, "am_deliver")
    }

    fn quiet(&self, me: ProcId) {
        self.refuse(me, "quiet")
    }

    fn compute(&self, me: ProcId, ns: u64) {
        self.record(me, StepOp::Compute { ns });
    }

    fn now_ns(&self, me: ProcId) -> u64 {
        self.refuse(me, "now_ns")
    }

    fn image_done(&self, me: ProcId) {
        self.refuse(me, "image_done")
    }

    fn poison(&self, msg: &str) {
        self.sim.poison(msg);
    }
}

/// What [`run_stepped`] simulated, for throughput accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SteppedReport {
    /// Ops committed through the scheduler (puts, reads, flag-adds, wait
    /// entries).
    pub committed_ops: u64,
    /// Local ops applied (compute blocks and retirements).
    pub local_ops: u64,
    /// Simulated makespan: the maximum image clock at quiescence.
    pub max_time_ns: u64,
}

impl SteppedReport {
    /// Every simulated operation, the numerator of simulated-ops/sec.
    pub fn total_ops(&self) -> u64 {
        self.committed_ops + self.local_ops
    }
}

/// Driver-side state of one hosted image.
enum Host {
    /// Next op fetched and (if turn-taking) chaos-charged; waiting for the
    /// commit turn. `my_op` is the chaos op index the charge was keyed by.
    Pending { op: StepOp, my_op: u64 },
    /// Parked in the core as Blocked on a flag wait entered at `t_entry`.
    Waiting {
        flag: FlagId,
        at_least: u64,
        t_entry: u64,
    },
    /// Retired.
    Done,
}

/// Fetch image `me`'s next op and charge its chaos delay if it is a
/// turn-taking op — the stepped twin of `lock_turn`'s call-entry charge.
fn admit<P: StepProgram>(
    fab: &SimFabric,
    core: &mut SimCore,
    nodes: &[usize],
    progs: &mut [P],
    hosts: &mut [Host],
    me: usize,
) {
    let op = progs[me].next();
    let mut my_op = 0;
    match &fab.cfg.chaos {
        Some(ch) if op.takes_turn() => {
            let o = core.chaos_ops[me];
            my_op = o;
            core.chaos_ops[me] += 1;
            let charged = core.time[me] + ch.op_delay(me, nodes[me], o);
            core.set_time(me, charged);
        }
        _ => {}
    }
    hosts[me] = Host::Pending { op, my_op };
}

/// The first `len` bytes of the driver's payload buffer, grown on demand.
fn payload(buf: &mut Vec<u8>, len: u32) -> &mut [u8] {
    let len = len as usize;
    if buf.len() < len {
        buf.resize(len, 0);
    }
    &mut buf[..len]
}

/// Run one [`StepProgram`] per image to completion on the calling thread,
/// committing ops in exact virtual-time order. Panics on simulated
/// deadlock or a chaos kill, with the same report the threaded driver
/// produces.
pub fn run_stepped<P: StepProgram>(fab: &SimFabric, mut progs: Vec<P>) -> SteppedReport {
    let n = fab.n_images();
    assert_eq!(progs.len(), n, "one program per image");
    let nodes: Vec<usize> = (0..n)
        .map(|i| fab.image_map().node_of(ProcId(i)).index())
        .collect();
    let mut hosts: Vec<Host> = (0..n).map(|_| Host::Done).collect();
    let mut live = n;
    let mut report = SteppedReport::default();
    // Sized ops carry no data: they move (and read into) this buffer.
    let mut bytes = Vec::new();
    let mut core = fab.core.lock();
    for me in 0..n {
        admit(fab, &mut core, &nodes, &mut progs, &mut hosts, me);
    }
    let mut woken = Vec::new();
    loop {
        if let Some(msg) = &core.poisoned {
            panic!("{msg}");
        }
        // Drain to a fixpoint: admitting a woken image charges its next
        // op (moving its turn later in the queue), which can bring further
        // events to the head — exactly the re-check the threaded driver's
        // `may_commit` gate performs before every grant.
        loop {
            woken.clear();
            core.apply_due_events(&mut woken);
            if woken.is_empty() {
                break;
            }
            for &w in &woken {
                let Host::Waiting {
                    flag,
                    at_least,
                    t_entry,
                } = hosts[w]
                else {
                    unreachable!("woken image {w} was not parked on a wait");
                };
                fab.record_wait_span(&core, w, t_entry, flag, at_least);
                admit(fab, &mut core, &nodes, &mut progs, &mut hosts, w);
            }
        }
        let Some(me) = core.next_eligible() else {
            if live == 0 {
                break;
            }
            // With no turn queued every event is at the head and has been
            // drained, so no turn here is a true global deadlock.
            let msg = core.deadlock_report();
            core.poisoned = Some(msg.clone());
            panic!("{msg}");
        };
        let Host::Pending { op, my_op } = hosts[me] else {
            unreachable!("eligible image {me} has no pending op");
        };
        if op.takes_turn() {
            // Commit-turn bookkeeping; a chaos kill poisons the core and
            // panics, matching the threaded driver's behavior.
            if let Err(msg) = core.grant_commit(me, my_op) {
                panic!("{msg}");
            }
            report.committed_ops += 1;
        } else {
            report.local_ops += 1;
        }
        match op {
            StepOp::Put { dst, offset, val } => {
                let seg = crate::bootstrap::SEG;
                fab.put_body(&mut core, me, dst, seg, offset, &val.to_ne_bytes(), false);
            }
            StepOp::PutSeg {
                dst,
                offset,
                seg,
                len,
            }
            | StepOp::PutNb {
                dst,
                offset,
                seg,
                len,
            } => {
                let (seg, nb) = (SegmentId(seg as usize), matches!(op, StepOp::PutNb { .. }));
                let data = payload(&mut bytes, len);
                fab.put_body(&mut core, me, dst, seg, offset, data, nb);
            }
            StepOp::Read { offset, seg, len } => {
                let out = payload(&mut bytes, len);
                fab.get_body(&mut core, me, SegmentId(seg as usize), offset, out);
            }
            StepOp::PutFlag {
                dst,
                offset,
                seg,
                len,
                flag,
                delta,
            } => {
                let (dst, seg, flag) =
                    (dst as usize, SegmentId(seg as usize), FlagId(flag as usize));
                let data = payload(&mut bytes, len);
                let (offset, delta) = (offset as usize, delta as u64);
                fab.put_flag_body(&mut core, me, dst, seg, offset, data, flag, delta);
            }
            StepOp::FlagAdd { dst, flag, delta } => {
                fab.flag_add_body(&mut core, me, dst, flag, delta);
            }
            StepOp::WaitGe { flag, at_least } => {
                let t_entry = core.time[me];
                if !fab.flag_wait_enter(&mut core, me, flag, at_least) {
                    hosts[me] = Host::Waiting {
                        flag,
                        at_least,
                        t_entry,
                    };
                    continue;
                }
            }
            StepOp::Compute { ns } => fab.compute_body(&mut core, me, ns),
            StepOp::Done => {
                core.set_done(me);
                hosts[me] = Host::Done;
                live -= 1;
                continue;
            }
        }
        admit(fab, &mut core, &nodes, &mut progs, &mut hosts, me);
    }
    report.max_time_ns = core.time.iter().copied().max().unwrap_or(0);
    report
}

/// The threaded reference for [`run_stepped`]: execute the same programs
/// with one OS thread per image through the public [`Fabric`] interface.
/// Only viable at thread-friendly fleet sizes; the parity tests use it to
/// hold the stepped driver to the threaded schedule bit-for-bit.
pub fn run_program_spmd<P>(fab: Arc<SimFabric>, progs: Vec<P>)
where
    P: StepProgram + Send + 'static,
{
    assert_eq!(progs.len(), fab.n_images(), "one program per image");
    let slots: Arc<Vec<Mutex<Option<P>>>> =
        Arc::new(progs.into_iter().map(|p| Mutex::new(Some(p))).collect());
    let f: Arc<SimFabric> = Arc::clone(&fab);
    run_spmd(fab, move |me| {
        let mut prog = slots[me.index()]
            .lock()
            .take()
            .expect("one thread per image");
        let mut bytes = Vec::new();
        loop {
            match prog.next() {
                StepOp::Put { dst, offset, val } => f.put(
                    me,
                    ProcId(dst),
                    crate::bootstrap::SEG,
                    offset,
                    &val.to_ne_bytes(),
                ),
                StepOp::PutSeg {
                    dst,
                    offset,
                    seg,
                    len,
                } => {
                    let data = payload(&mut bytes, len);
                    f.put(me, ProcId(dst), SegmentId(seg as usize), offset, data);
                }
                StepOp::PutNb {
                    dst,
                    offset,
                    seg,
                    len,
                } => {
                    let data = payload(&mut bytes, len);
                    f.put_nb(me, ProcId(dst), SegmentId(seg as usize), offset, data);
                }
                StepOp::Read { offset, seg, len } => {
                    let out = payload(&mut bytes, len);
                    f.get(me, me, SegmentId(seg as usize), offset, out);
                }
                StepOp::PutFlag {
                    dst,
                    offset,
                    seg,
                    len,
                    flag,
                    delta,
                } => {
                    let (dst, seg, flag) = (
                        ProcId(dst as usize),
                        SegmentId(seg as usize),
                        FlagId(flag as usize),
                    );
                    let data = payload(&mut bytes, len);
                    f.put_flag(me, dst, seg, offset as usize, data, flag, delta as u64);
                }
                StepOp::FlagAdd { dst, flag, delta } => f.flag_add(me, ProcId(dst), flag, delta),
                StepOp::WaitGe { flag, at_least } => f.flag_wait_ge(me, flag, at_least),
                StepOp::Compute { ns } => f.compute(me, ns),
                StepOp::Done => {
                    f.image_done(me);
                    return;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, SimFabric};
    use caf_topology::{presets, ImageMap, Placement, SoftwareOverheads};

    fn fabric(images: usize, chaos_seed: Option<u64>, legacy_queue: bool) -> Arc<SimFabric> {
        fabric_on(2, 4, images, chaos_seed, legacy_queue)
    }

    fn fabric_on(
        nodes: usize,
        per_node: usize,
        images: usize,
        chaos_seed: Option<u64>,
        legacy_queue: bool,
    ) -> Arc<SimFabric> {
        let map = ImageMap::new(
            presets::mini(nodes, per_node),
            images,
            &Placement::Block { per_node },
        );
        let f = SimFabric::new(
            map,
            SimConfig {
                cost: presets::whale_cost(),
                overheads: SoftwareOverheads::NONE,
                chaos: chaos_seed.map(crate::chaos::ChaosConfig::from_seed),
                legacy_queue,
                ..SimConfig::default()
            },
        );
        // The ring's segment: the first allocation on every image.
        for i in 0..images {
            assert_eq!(f.alloc_segment(ProcId(i), 4096), RING_SEG);
        }
        f
    }

    const RING_SEG: SegmentId = SegmentId(crate::bootstrap::NUM_SEGS);
    const RING_FLAG: FlagId = FlagId(2);

    /// Traffic, not a collective: each lap, image `me` sends one op of
    /// every kind to its right-hand neighbour and a notification and a
    /// signalled put `me + 5` further on (another node), waits for its own
    /// three, reads what landed and computes for a while that depends on
    /// who it is.
    struct Ring {
        me: usize,
        n: usize,
        laps: u64,
        step: u64,
    }

    /// Turn-taking ops per lap of the [`Ring`] (one more op computes).
    const RING_COMMITS: u64 = 8;

    impl StepProgram for Ring {
        fn next(&mut self) -> StepOp {
            let (lap, at) = (self.step / 9, self.step % 9);
            if lap == self.laps {
                return StepOp::Done;
            }
            self.step += 1;
            let (dst, far) = ((self.me + 1) % self.n, (self.me + 5) % self.n);
            let (flag, seg) = (RING_FLAG, RING_SEG.0 as u32);
            let offset = 8 * (lap as usize % 4);
            match at {
                0 => StepOp::Put {
                    dst,
                    offset,
                    val: lap,
                },
                1 => StepOp::PutSeg {
                    dst,
                    offset,
                    seg,
                    len: 24,
                },
                2 => StepOp::PutNb {
                    dst: far,
                    offset: 64,
                    seg,
                    len: 3000,
                },
                3 => StepOp::FlagAdd {
                    dst,
                    flag,
                    delta: 1,
                },
                4 => StepOp::FlagAdd {
                    dst: far,
                    flag,
                    delta: 1,
                },
                5 => StepOp::PutFlag {
                    dst: far as u32,
                    offset: 3072,
                    seg,
                    len: 100,
                    flag: flag.0 as u32,
                    delta: 1,
                },
                6 => StepOp::WaitGe {
                    flag,
                    at_least: 3 * (lap + 1),
                },
                7 => StepOp::Read {
                    offset: 64,
                    seg,
                    len: 3000,
                },
                _ => StepOp::Compute {
                    ns: 40 * (self.me as u64 % 3),
                },
            }
        }
    }

    fn ring(n: usize, laps: u64) -> Vec<Ring> {
        let step = 0;
        (0..n).map(|me| Ring { me, n, laps, step }).collect()
    }

    fn final_times(fab: &SimFabric) -> Vec<u64> {
        (0..fab.n_images()).map(|i| fab.now_ns(ProcId(i))).collect()
    }

    /// Both runs granted the same `(image, op index, clock)` commits in
    /// the same order.
    fn assert_same_commits(a: &SimFabric, b: &SimFabric, what: &str) {
        let la = a.core.lock().commit_log.clone();
        let lb = b.core.lock().commit_log.clone();
        for (k, (x, y)) in la.iter().zip(lb.iter()).enumerate() {
            assert_eq!(
                x,
                y,
                "commit #{k} diverged ({what}): {x:?} vs {y:?}\n\
                 left tail: {:?}\nright tail: {:?}",
                &la[k..(k + 8).min(la.len())],
                &lb[k..(k + 8).min(lb.len())]
            );
        }
        assert_eq!(la.len(), lb.len(), "commit counts ({what})");
    }

    /// The run never pushed behind the time its queue had reached.
    fn assert_monotone(fab: &SimFabric) {
        let f = fab.queue_footprint().expect("the one-queue core");
        assert_eq!(f.behind_pushes, 0);
    }

    #[test]
    fn a_step_op_stays_four_words() {
        assert_eq!(std::mem::size_of::<StepOp>(), 32);
    }

    #[test]
    fn stepped_matches_threaded_bit_for_bit() {
        for chaos_seed in [None, Some(3), Some(11)] {
            let f_threaded = fabric(8, chaos_seed, false);
            run_program_spmd(Arc::clone(&f_threaded), ring(8, 6));
            let f_stepped = fabric(8, chaos_seed, false);
            let report = run_stepped(&f_stepped, ring(8, 6));
            assert_same_commits(
                &f_threaded,
                &f_stepped,
                &format!("threaded vs stepped, chaos {chaos_seed:?}"),
            );
            assert_monotone(&f_threaded);
            assert_monotone(&f_stepped);
            assert_eq!(
                final_times(&f_stepped),
                final_times(&f_threaded),
                "stepped vs threaded virtual times diverged (chaos {chaos_seed:?})"
            );
            assert_eq!(
                report.max_time_ns,
                f_threaded.max_time_ns(),
                "makespan diverged (chaos {chaos_seed:?})"
            );
            assert_eq!(
                f_stepped.stats().snapshot(),
                f_threaded.stats().snapshot(),
                "counters diverged (chaos {chaos_seed:?})"
            );
            // The turn-taking ops and one compute a lap, one retirement.
            assert_eq!(report.committed_ops, 8 * 6 * RING_COMMITS);
            assert_eq!(report.local_ops, 8 * 6 + 8);
        }
    }

    #[test]
    fn stepped_legacy_and_one_queue_cores_agree() {
        for chaos_seed in [None, Some(29)] {
            let f_legacy = fabric(8, chaos_seed, true);
            let r_legacy = run_stepped(&f_legacy, ring(8, 6));
            let f_queue = fabric(8, chaos_seed, false);
            let r_queue = run_stepped(&f_queue, ring(8, 6));
            assert_eq!(final_times(&f_legacy), final_times(&f_queue));
            assert_eq!(r_legacy, r_queue);
            assert_monotone(&f_queue);
        }
    }

    #[test]
    fn reshuffles_with_turns_in_many_buckets_keep_the_cores_in_step() {
        // A chaos seed whose PCT reshuffle fires every 7 commits, on 48
        // images over 4 nodes: at any reshuffle the alive images' turns
        // are spread over the run, the side heap and buckets of several
        // levels (clocks differ by tens of ns to tens of µs), and every
        // one of them must be re-keyed where it sits.
        let seed = (0u64..)
            .find(|&s| crate::chaos::ChaosConfig::from_seed(s).pct_interval == 7)
            .expect("a third of the seeds");
        let (nodes, per_node, n, laps) = (4, 12, 48, 8);
        let f_threaded = fabric_on(nodes, per_node, n, Some(seed), false);
        run_program_spmd(Arc::clone(&f_threaded), ring(n, laps));
        let f_stepped = fabric_on(nodes, per_node, n, Some(seed), false);
        let r_stepped = run_stepped(&f_stepped, ring(n, laps));
        let f_legacy = fabric_on(nodes, per_node, n, Some(seed), true);
        let r_legacy = run_stepped(&f_legacy, ring(n, laps));
        assert_same_commits(&f_threaded, &f_stepped, "threaded vs stepped");
        assert_same_commits(&f_legacy, &f_stepped, "legacy vs one queue");
        assert_eq!(final_times(&f_threaded), final_times(&f_stepped));
        assert_eq!(final_times(&f_legacy), final_times(&f_stepped));
        assert_eq!(r_legacy, r_stepped);
        assert!(
            r_stepped.committed_ops / 7 > 100,
            "only {} commits: too few reshuffles to mean anything",
            r_stepped.committed_ops
        );
        assert_monotone(&f_threaded);
        assert_monotone(&f_stepped);
    }

    #[test]
    fn stepped_run_is_deterministic() {
        let r1 = run_stepped(&fabric(8, Some(7), false), ring(8, 4));
        let t1 = {
            let f = fabric(8, Some(7), false);
            run_stepped(&f, ring(8, 4));
            final_times(&f)
        };
        let f2 = fabric(8, Some(7), false);
        let r2 = run_stepped(&f2, ring(8, 4));
        assert_eq!(r1, r2);
        assert_eq!(t1, final_times(&f2));
    }

    #[test]
    fn stepped_deadlock_panics_with_report() {
        struct Stuck;
        impl StepProgram for Stuck {
            fn next(&mut self) -> StepOp {
                StepOp::WaitGe {
                    flag: RING_FLAG,
                    at_least: 1,
                }
            }
        }
        let f = fabric(2, None, false);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_stepped(&f, vec![Stuck, Stuck]);
        }));
        let msg = crate::panic_message(&*out.expect_err("must deadlock"));
        assert!(msg.contains("deadlock"), "got: {msg}");
    }

    #[test]
    fn hosted_fleet_larger_than_sane_thread_counts() {
        // 4096 hosted images on one thread: far past what run_spmd should
        // be asked to do, trivial for the stepped driver.
        let (n, laps) = (4096, 2);
        let report = run_stepped(&fabric_on(8, 512, n, None, false), ring(n, laps));
        assert_eq!(report.committed_ops, n as u64 * laps * RING_COMMITS);
        assert_eq!(report.local_ops, n as u64 * (laps + 1));
        assert!(report.max_time_ns > 0);
    }

    /// Run `call` against a recorder for image 1 of 4 and return its panic.
    fn refusal(call: impl FnOnce(&Script, ProcId)) -> String {
        let script = Script::new(fabric(4, None, false));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            call(&script, ProcId(1));
        }));
        crate::panic_message(&*out.expect_err("the recorder must refuse"))
    }

    #[test]
    fn the_recorder_tapes_what_it_can_and_names_what_it_cannot() {
        let script = Script::new(fabric(4, None, false));
        let me = ProcId(1);
        script.put(me, ProcId(2), RING_SEG, 8, &[7; 24]);
        assert_eq!(script.put_nb(me, me, RING_SEG, 0, &[7; 5]), PutToken::DONE);
        let mut out = [9u8; 16];
        script.get(me, me, RING_SEG, 32, &mut out);
        assert_eq!(out, [0; 16]);
        script.put_flag(me, ProcId(3), RING_SEG, 40, &[7; 12], RING_FLAG, 2);
        script.flag_add(me, ProcId(0), RING_FLAG, 3);
        script.flag_wait_ge(me, RING_FLAG, 2);
        script.compute(me, 70);
        let seg = RING_SEG.0 as u32;
        let taped: Vec<StepOp> = std::iter::from_fn(|| script.pop(me)).collect();
        assert_eq!(
            taped,
            [
                StepOp::PutSeg {
                    dst: 2,
                    offset: 8,
                    seg,
                    len: 24
                },
                StepOp::PutNb {
                    dst: 1,
                    offset: 0,
                    seg,
                    len: 5
                },
                StepOp::Read {
                    offset: 32,
                    seg,
                    len: 16
                },
                // One op, not a put and a flag.
                StepOp::PutFlag {
                    dst: 3,
                    offset: 40,
                    seg,
                    len: 12,
                    flag: RING_FLAG.0 as u32,
                    delta: 2
                },
                StepOp::FlagAdd {
                    dst: 0,
                    flag: RING_FLAG,
                    delta: 3
                },
                StepOp::WaitGe {
                    flag: RING_FLAG,
                    at_least: 2
                },
                StepOp::Compute { ns: 70 },
            ]
        );
        assert_eq!(script.pop(ProcId(0)), None, "tapes are per image");
        // Nothing was committed: recording costs the fleet no time.
        assert_eq!(script.sim.max_time_ns(), 0);

        type Call = Box<dyn FnOnce(&Script, ProcId)>;
        let refused: Vec<(&str, Call)> = vec![
            (
                "get from another image",
                Box::new(|s, me| s.get(me, ProcId(0), RING_SEG, 0, &mut [0; 8])),
            ),
            (
                "flag_read",
                Box::new(|s, me| _ = s.flag_read(me, RING_FLAG)),
            ),
            (
                "amo_fetch_add_u64",
                Box::new(|s, me| _ = s.amo_fetch_add_u64(me, me, RING_SEG, 0, 1)),
            ),
            (
                "amo_cas_u64",
                Box::new(|s, me| _ = s.amo_cas_u64(me, me, RING_SEG, 0, 0, 1)),
            ),
            (
                "am_deliver",
                Box::new(|s, me| s.am_deliver(me, ProcId(0), &[])),
            ),
            (
                "alloc_segment",
                Box::new(|s, me| _ = s.alloc_segment(me, 8)),
            ),
            ("alloc_flags", Box::new(|s, me| _ = s.alloc_flags(me, 1))),
            ("quiet", Box::new(|s, me| s.quiet(me))),
            ("put_wait", Box::new(|s, me| s.put_wait(me, PutToken::DONE))),
            (
                "put_test",
                Box::new(|s, me| _ = s.put_test(me, PutToken::DONE)),
            ),
            ("now_ns", Box::new(|s, me| _ = s.now_ns(me))),
            ("image_done", Box::new(|s, me| s.image_done(me))),
        ];
        for (name, call) in refused {
            let msg = refusal(call);
            let want = format!("hosted image 1: {name} cannot be recorded");
            assert!(msg.starts_with(&want), "{name}: {msg}");
        }
        // A signalled put's narrow fields: what does not fit is named.
        let msg = refusal(|s, me| s.put_flag(me, me, RING_SEG, 0, &[1], RING_FLAG, 1 << 40));
        assert!(
            msg.starts_with("hosted image 1: put_flag's delta 1099511627776 does not fit"),
            "{msg}"
        );
    }
}
