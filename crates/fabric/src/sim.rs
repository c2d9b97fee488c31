//! A conservative, deterministic discrete-event simulation fabric.
//!
//! # How it works
//!
//! Images run as ordinary OS threads executing unmodified algorithm code;
//! the simulator never sees their control flow, only their fabric calls.
//! Each image carries a **virtual clock**. Every fabric call is a
//! *scheduling point*: the calling image may commit its effect only when it
//! holds the globally minimal `(virtual time, rank)` among images that could
//! still commit (alive and not blocked), and no undelivered notification is
//! due at or before its clock. This is the classic conservative
//! discrete-event discipline; it makes runs **deterministic** (commit order
//! is a pure function of the program and the cost model, independent of OS
//! scheduling) and **causally correct** (shared resources are reserved in
//! virtual-time order).
//!
//! Both halves of that rule are one read. Pending notifications and every
//! alive image's commit turn live in **one queue** ([`crate::evq`]), keyed
//! `(time, event before turn, tie | prio, seq | rank)`: an event sorts ahead
//! of every turn of its time, so "due" means "at the head", the due events
//! are drained by popping while the head is an event, and the image whose
//! turn is then at the head is the one that may commit. A clock advance, a
//! block, a wake or a death replaces the image's turn (the old entry falls
//! out when it surfaces); with nothing queued and someone not retired, the
//! fleet is deadlocked. [`SimConfig::legacy_queue`] keeps the pre-scale
//! representation — a global event heap, O(n) scans over the images — as
//! the oracle this one is diffed against.
//!
//! # Cost model
//!
//! Costs come from [`caf_topology::CostParams`] (see DESIGN.md
//! §6 for calibration):
//!
//! * **intra-node put / notification**: the sender's CPU pays the software
//!   overhead, then the *node memory bus* — a shared resource — is occupied
//!   for `gap_intra + bytes·G_intra`. Concurrent same-node messages
//!   serialize on the bus: this is precisely the effect the paper's §IV-A
//!   uses to argue dissemination is wrong inside a node (n·log n serialized
//!   notifications vs. 2(n−1) for the linear barrier).
//! * **inter-node put / notification**: the sender posts a descriptor
//!   (CPU overhead only), the sender's *NIC* is occupied for
//!   `gap_nic + bytes·G_inter`, the wire adds `l_inter`, and the receiver's
//!   NIC is occupied for `gap_nic` on landing. NICs of different nodes run
//!   in parallel — which is why dissemination's log n rounds win across
//!   nodes.
//! * **gets / remote atomics**: round trips (`2·l`).
//!
//! Point-to-point ordering (an RDMA connection's guarantee) falls out of the
//! resource reservations: a notification posted after a payload put to the
//! same target reserves the same resources later, hence lands later.
//!
//! Payload bytes are copied eagerly at commit time. A program that reads
//! remote data *without* synchronizing may therefore observe values "from
//! the virtual future" — such programs are erroneous under CAF semantics
//! anyway; properly synchronized reads always see exactly the data whose
//! flags they waited on, because flag arrivals are ordered after their
//! payloads.
//!
//! # Deadlock
//!
//! If every image is blocked on a flag wait and no notification is in
//! flight, the simulator marks itself poisoned and panics on **all** image
//! threads with a diagnostic — turning algorithmic synchronization bugs into
//! immediate test failures rather than hangs.

use crate::chaos::ChaosConfig;
use crate::evq::{EvKey, Footprint, ShardedEvq};
use crate::sched::SchedIndex;
use crate::seg::{FlagId, SegmentId};
use crate::stats::FabricStats;
use crate::{Fabric, PutToken, RecoveryError};
use caf_topology::{CostParams, ImageMap, ProcId, SoftwareOverheads};
use caf_trace::{Event, EventKind, Tracer};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Configuration for a [`SimFabric`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Hardware cost parameters (defaults to the paper's cluster — see
    /// [`caf_topology::presets::whale_cost`]).
    pub cost: CostParams,
    /// Software-stack overheads layered on the hardware model.
    pub overheads: SoftwareOverheads,
    /// Trace sink. The default [`Tracer::off`] records nothing; install a
    /// [`Tracer::for_images`] tracer to capture every fabric operation with
    /// virtual-time stamps.
    pub tracer: Tracer,
    /// Seeded chaos scheduling and fault injection (see [`ChaosConfig`]).
    /// `None` (the default) is the plain conservative scheduler; `Some`
    /// perturbs the cost model deterministically per seed so different
    /// seeds explore different — but each fully reproducible — commit
    /// orders.
    pub chaos: Option<ChaosConfig>,
    /// Test-only escape hatch: keep events in the pre-scale single global
    /// `BinaryHeap` and decide whose turn it is by O(n) scans over the
    /// images, instead of reading both off the one queue of [`crate::evq`].
    /// Schedules are bit-for-bit identical either way — `caf-check` diffs
    /// the two and `exp_s1_simscale` uses this path as its pre-scale
    /// throughput reference. The [`Default`] reads `CAF_SIM_LEGACY_QUEUE=1`.
    pub legacy_queue: bool,
    /// Bootstrap-segment slots to pre-allocate per image. `None` (the
    /// default) keeps the historical one-slot-per-peer layout — O(n²)
    /// bytes fleet-wide, fine up to a few thousand images. Fleet-scale
    /// runs pass `Some(slots)` to keep the footprint linear: hosted teams
    /// are provisioned and never touch the segment (`Some(1)`), hand-written
    /// step programs use the first few slots.
    pub bootstrap_slots: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cost: CostParams::default(),
            overheads: SoftwareOverheads::NONE,
            tracer: Tracer::off(),
            chaos: None,
            legacy_queue: std::env::var("CAF_SIM_LEGACY_QUEUE").is_ok_and(|v| v == "1"),
            bootstrap_slots: None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ImgState {
    /// May commit effects (running or between fabric calls).
    Alive,
    /// Parked in `flag_wait_ge` until its flag reaches the target value.
    Blocked { flag: usize, at_least: u64 },
    /// Retired via `image_done`.
    Done,
}

/// A pending flag notification: who posted it, when, and where it lands.
/// `src`/`posted`/`intra` exist for the trace's `FlagDeliver` records (the
/// critical-path extractor needs the sender and post time of the delivery
/// that unblocked each wait); they do not affect simulation semantics.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Notify {
    img: usize,
    flag: usize,
    delta: u64,
    src: u32,
    posted: u64,
    intra: bool,
}

/// What happens when an event comes due.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum EvKind {
    /// `delta` lands on `flags[img][flag]`.
    FlagArrive(Notify),
    /// A message reaches `node`'s NIC off the wire: occupy the NIC for
    /// `gap_nic`, then (for notifications) deliver the flag update.
    /// Serviced as an *event* so NIC slots are granted in virtual-time
    /// order — a reservation made directly at send-commit time would push
    /// later (but virtually earlier) traffic behind a far-future slot.
    /// `nb` marks the landing of a nonblocking put, whose completion the
    /// stats track separately from its injection.
    Landing {
        node: usize,
        notify: Option<Notify>,
        nb: bool,
    },
}

/// A scheduled simulator event. `tie` breaks exact-time ties: 0 (FIFO by
/// `seq`) under the default scheduler, a hashed priority under chaos
/// reordering — time stays the primary key either way.
#[derive(Debug, PartialEq, Eq)]
struct Ev {
    time: u64,
    tie: u64,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.tie, self.seq).cmp(&(other.time, other.tie, other.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The oracle core behind [`SimConfig::legacy_queue`]: the pre-scale
/// global event heap, O(n) argmin scans over `state`, and the alive index
/// the event drain reads its due-bound from. Kept as it was so caf-check
/// and `exp_s1_simscale` can diff the one-queue core against it.
struct Legacy {
    /// One global heap over all in-flight events.
    events: BinaryHeap<Reverse<Ev>>,
    /// Indexed min-heap over Alive images keyed `(time, prio, rank)`; the
    /// scans ignore it, the drain's due-bound is its root's clock.
    index: SchedIndex,
}

impl Legacy {
    /// The earliest event, if it is due: at or before the earliest clock
    /// of any image that could still commit (vacuously so with no such
    /// image).
    fn pop_due(&mut self) -> Option<(u64, EvKind)> {
        let min_alive = self.index.peek_time();
        let Reverse(ev) = self.events.peek()?;
        if min_alive.is_some_and(|m| ev.time > m) {
            return None;
        }
        self.events.pop().map(|Reverse(ev)| (ev.time, ev.kind))
    }
}

/// What is pending — events and whose turn it is — in one of two provably
/// order-identical representations.
// One per fabric and never moved: the queue's bucket tables stay inline.
#[allow(clippy::large_enum_variant)]
enum Sched {
    /// The default core: events and image turns in one monotone queue
    /// (see [`crate::evq`]); every scheduling question is a read of its
    /// head.
    Queue(ShardedEvq<EvKind>),
    /// The pre-scale reference ([`SimConfig::legacy_queue`]).
    Legacy(Legacy),
}

impl Sched {
    /// Image `i` becomes runnable with key `(time, prio)`; it held no turn.
    fn give_turn(&mut self, i: usize, key: (u64, u64)) {
        match self {
            Sched::Queue(q) => q.set_turn(i, key.0, key.1),
            Sched::Legacy(l) => l.index.insert(i, key),
        }
    }

    /// Image `i` blocks or retires. No-op if it held no turn.
    fn take_turn(&mut self, i: usize) {
        match self {
            Sched::Queue(q) => q.drop_turn(i),
            Sched::Legacy(l) => l.index.remove(i),
        }
    }
}

pub(crate) struct SimCore {
    /// Effective per-message NIC occupancy (hardware gap + the stack's
    /// software extra); the Landing service needs it inside apply.
    gap_nic_ns: u64,
    pub(crate) time: Vec<u64>,
    state: Vec<ImgState>,
    /// `segs[img][segment]` → backing bytes.
    segs: Vec<Vec<Vec<u8>>>,
    /// `flags[img][flag]` → accumulating counter value.
    flags: Vec<Vec<u64>>,
    /// Latest arrival time of any one-sided op initiated by each image.
    last_arrival: Vec<u64>,
    /// Virtual time at which each node's memory bus is next free.
    node_bus_free: Vec<u64>,
    /// Virtual time at which each socket's local bus is next free
    /// (indexed `node * sockets_per_node + socket`).
    socket_bus_free: Vec<u64>,
    /// Virtual time at which each node's NIC is next free.
    nic_free: Vec<u64>,
    /// Pending events and commit turns (see [`Sched`]).
    sched: Sched,
    /// Retired images: a fleet with nothing pending and someone not yet
    /// retired is deadlocked.
    done_count: usize,
    event_seq: u64,
    /// Set when a global deadlock was detected; all threads panic with it.
    pub(crate) poisoned: Option<String>,
    /// Shared counters (clone of the fabric's): the event drain records
    /// nonblocking-put completions as their `Landing`s come due.
    stats: Arc<FabricStats>,
    /// Shared trace sink (clone of [`SimConfig::tracer`]): the core writes
    /// `FlagDeliver` records to the system ring as the event queue drains,
    /// and the deadlock report reads back each image's recent events.
    tracer: Tracer,
    /// Chaos knobs (clone of [`SimConfig::chaos`]); `None` = plain
    /// scheduler, zero overhead on every path below.
    chaos: Option<ChaosConfig>,
    /// Per-image fabric-call counter — the deterministic "op index" that
    /// keys cpu jitter (wall-clock mutex order is *not* deterministic;
    /// this is).
    pub(crate) chaos_ops: Vec<u64>,
    /// Current PCT-style tie-break priority per image (all zero without
    /// chaos reordering, collapsing the schedule key to `(time, rank)`).
    prio: Vec<u64>,
    /// Committed fabric calls — drives periodic priority reshuffles.
    commits: u64,
    /// Test-only commit trace `(image, op index, clock at grant)` used by
    /// the stepped/threaded parity tests to diff schedules.
    #[cfg(test)]
    pub(crate) commit_log: Vec<(usize, u64, u64)>,
}

/// An op named a flag or segment id its target never allocated: a program
/// bug — or a recorded op replayed on a fabric its team was not provisioned
/// on — that would otherwise read `index out of bounds: the len is 4`.
#[cold]
fn unallocated(img: usize, what: &str, id: usize, has: usize) -> ! {
    panic!("image {img}: {what} {id} not allocated (has {has})")
}

/// Reserve a serialized resource — a node or socket bus, a NIC — that is
/// free from `*free` on, from `not_before` for `busy` ns; returns the
/// reservation start.
#[inline]
fn reserve(free: &mut u64, not_before: u64, busy: u64) -> u64 {
    let start = not_before.max(*free);
    *free = start + busy;
    start
}

impl SimCore {
    /// Image `img`'s flag `flag`.
    #[inline]
    fn flag_mut(&mut self, img: usize, flag: usize) -> &mut u64 {
        let has = self.flags[img].len();
        match self.flags[img].get_mut(flag) {
            Some(cell) => cell,
            None => unallocated(img, "flag", flag, has),
        }
    }

    /// Bump an accumulating sync-flag counter and return its new value,
    /// panicking on wraparound: the counters are cumulative by design
    /// (never reset), so silent `u64` overflow would corrupt every
    /// threshold comparison downstream.
    fn flag_bump(&mut self, img: usize, flag: usize, delta: u64) -> u64 {
        let cell = self.flag_mut(img, flag);
        *cell = cell.checked_add(delta).unwrap_or_else(|| {
            panic!(
                "sync flag counter overflow: image {img} flag {flag} \
                 (cumulative counter wrapped adding {delta})"
            )
        });
        *cell
    }

    /// The `len` bytes at `offset` of `img`'s segment `seg`, for the op
    /// `what` (named when the range does not fit).
    #[inline]
    fn window(
        &mut self,
        img: usize,
        seg: SegmentId,
        offset: usize,
        len: usize,
        what: &str,
    ) -> &mut [u8] {
        let has = self.segs[img].len();
        let Some(bytes) = self.segs[img].get_mut(seg.0) else {
            unallocated(img, "segment", seg.0, has)
        };
        let end = offset.checked_add(len).filter(|end| *end <= bytes.len());
        let Some(end) = end else {
            panic!(
                "{what} of {len} bytes at {offset} exceeds {seg:?} ({} bytes)",
                bytes.len()
            )
        };
        &mut bytes[offset..end]
    }

    /// One atomic on `img`'s `u64` cell at `offset` of `seg`, for the op
    /// `what`: `update(old)` decides what, if anything, is stored. Returns
    /// the previous value. A cell off an 8-byte boundary is refused, as
    /// real memory refuses it.
    fn amo_cell(
        &mut self,
        img: usize,
        seg: SegmentId,
        offset: usize,
        what: &str,
        update: impl FnOnce(u64) -> Option<u64>,
    ) -> u64 {
        assert!(
            offset.is_multiple_of(8),
            "AMO offset {offset} not 8-byte aligned"
        );
        let cell = self.window(img, seg, offset, 8, what);
        let old = u64::from_ne_bytes((&*cell).try_into().expect("8 bytes"));
        if let Some(new) = update(old) {
            cell.copy_from_slice(&new.to_ne_bytes());
        }
        old
    }

    /// Advance image `i`'s virtual clock, keeping its commit turn in sync.
    /// Every clock write in the fabric funnels through here; Blocked/Done
    /// images hold no turn and need no update.
    pub(crate) fn set_time(&mut self, i: usize, t: u64) {
        let moved = self.time[i] != t;
        self.time[i] = t;
        match &mut self.sched {
            Sched::Queue(q) => {
                if moved && matches!(self.state[i], ImgState::Alive) {
                    q.set_turn(i, t, self.prio[i]);
                }
            }
            Sched::Legacy(l) => {
                if l.index.contains(i) {
                    l.index.update(i, (t, self.prio[i]));
                }
            }
        }
    }

    /// Park image `i` on a flag wait entered at clock `t`: one state
    /// change — the clock is set and the turn given up together.
    fn block_at(&mut self, i: usize, t: u64, flag: usize, at_least: u64) {
        self.time[i] = t;
        self.state[i] = ImgState::Blocked { flag, at_least };
        self.sched.take_turn(i);
    }

    /// Wake image `i` at delivery time `at` (clocks never move backwards).
    fn set_wake(&mut self, i: usize, at: u64) {
        self.state[i] = ImgState::Alive;
        self.time[i] = self.time[i].max(at);
        self.sched.give_turn(i, (self.time[i], self.prio[i]));
        self.stats.record_sim_wakeup();
    }

    /// Retire image `i` (done or killed).
    pub(crate) fn set_done(&mut self, i: usize) {
        if !matches!(self.state[i], ImgState::Done) {
            self.done_count += 1;
        }
        self.state[i] = ImgState::Done;
        self.sched.take_turn(i);
    }

    /// Re-key every alive image after a chaos priority reshuffle.
    fn resort_priorities(&mut self) {
        let time = &self.time;
        let prio = &self.prio;
        match &mut self.sched {
            Sched::Queue(q) => q.rekey_turns(|i| prio[i]),
            Sched::Legacy(l) => l.index.refresh(|i| (time[i], prio[i])),
        }
    }

    /// Everyone not retired is Alive again at its current clock and
    /// nothing is in flight (the heal reset).
    fn reset_pending(&mut self) {
        match &mut self.sched {
            Sched::Queue(q) => q.clear(),
            Sched::Legacy(l) => {
                l.index.clear();
                l.events.clear();
            }
        }
        for i in 0..self.state.len() {
            if !matches!(self.state[i], ImgState::Done) {
                self.state[i] = ImgState::Alive;
                self.sched.give_turn(i, (self.time[i], self.prio[i]));
            }
        }
    }

    /// Apply all notifications that are due: those at or before the earliest
    /// clock of any image that could still commit. With no such image, the
    /// earliest notification is (vacuously) due. Images unblocked by an
    /// applied notification are appended to `woken`.
    ///
    /// In the one-queue core an event sorts before every turn of its time,
    /// so "due" is "at the head": a same-timestamp burst of `FlagArrive`s
    /// applies in one pass of pops.
    pub(crate) fn apply_due_events(&mut self, woken: &mut Vec<usize>) {
        loop {
            let due = match &mut self.sched {
                Sched::Queue(q) => q.pop().map(|(key, kind)| (key.time, kind)),
                Sched::Legacy(l) => l.pop_due(),
            };
            let Some((ev_time, kind)) = due else {
                return;
            };
            self.stats.record_sim_event_pop();
            match kind {
                EvKind::FlagArrive(n) => self.deliver(n, ev_time, woken),
                EvKind::Landing { node, notify, nb } => {
                    let start = reserve(&mut self.nic_free[node], ev_time, self.gap_nic_ns);
                    if nb {
                        self.stats.shared().record_put_nb_complete();
                    }
                    if let Some(n) = notify {
                        self.push_event(start + self.gap_nic_ns, EvKind::FlagArrive(n));
                    }
                }
            }
        }
    }

    /// Land one flag notification at `at`: bump the counter, record the
    /// delivery, and wake the target if this satisfied its wait.
    fn deliver(&mut self, n: Notify, at: u64, woken: &mut Vec<usize>) {
        let value = self.flag_bump(n.img, n.flag, n.delta);
        self.tracer.record_system(
            Event::instant(EventKind::FlagDeliver, at)
                .a(n.src as u64)
                .b(n.flag as u64)
                .c(n.posted)
                .d(n.img as u64)
                .intra(n.intra),
        );
        if let ImgState::Blocked {
            flag: wflag,
            at_least,
        } = self.state[n.img]
        {
            if wflag == n.flag && value >= at_least {
                self.set_wake(n.img, at);
                woken.push(n.img);
            }
        }
    }

    /// Schedule key of image `i`: `(time, prio, rank)`. `prio` is all
    /// zeros without chaos reordering, so the key degenerates to the
    /// classic `(time, rank)`; with chaos it breaks exact-time ties by
    /// hashed priority (virtual time always dominates).
    fn sched_key(&self, i: usize) -> (u64, u64, usize) {
        (self.time[i], self.prio[i], i)
    }

    /// The image that should run next: argmin over Alive of the key — the
    /// queue's head once due events are drained (callers drain first; an
    /// undrained head is an event and answers `None`), the original O(n)
    /// scan in legacy mode. Both pick the same image: the queue breaks
    /// exact key ties by lowest rank exactly as `min_by_key` does.
    pub(crate) fn next_eligible(&mut self) -> Option<usize> {
        match &mut self.sched {
            Sched::Queue(q) => q.next_turn(),
            Sched::Legacy(_) => self
                .state
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, ImgState::Alive))
                .min_by_key(|(i, _)| self.sched_key(*i))
                .map(|(i, _)| i),
        }
    }

    /// May image `me` (which is Alive, inside a fabric call) commit now?
    fn may_commit(&mut self, me: usize) -> bool {
        debug_assert!(matches!(self.state[me], ImgState::Alive));
        if let Sched::Queue(q) = &mut self.sched {
            // My turn is at the head: nobody is earlier, and any
            // notification due at or before my clock has landed.
            return q.next_turn() == Some(me);
        }
        let Sched::Legacy(legacy) = &self.sched else {
            unreachable!("not the queue")
        };
        let key = self.sched_key(me);
        for (j, s) in self.state.iter().enumerate() {
            if j != me && matches!(s, ImgState::Alive) && self.sched_key(j) < key {
                return false;
            }
        }
        // Any notification due at or before my clock must land first.
        match legacy.events.peek() {
            Some(Reverse(ev)) => ev.time > self.time[me],
            None => true,
        }
    }

    pub(crate) fn push_event(&mut self, time: u64, kind: EvKind) {
        let seq = self.event_seq;
        self.event_seq += 1;
        let (time, tie) = match &self.chaos {
            Some(ch) => (time + ch.event_delay(seq), ch.event_tiebreak(seq)),
            None => (time, 0),
        };
        let queued = match &mut self.sched {
            Sched::Queue(q) => {
                q.push(0, EvKey { time, tie, seq }, kind);
                q.len()
            }
            Sched::Legacy(l) => {
                l.events.push(Reverse(Ev {
                    time,
                    tie,
                    seq,
                    kind,
                }));
                l.events.len()
            }
        };
        self.stats.record_sim_event_push(queued as u64);
    }

    /// True when no image can make progress ever again: nothing in
    /// flight, nobody alive, and at least one image still blocked.
    pub(crate) fn is_deadlocked(&self) -> bool {
        let idle = match &self.sched {
            Sched::Queue(q) => q.is_empty() && q.turns() == 0,
            Sched::Legacy(l) => l.events.is_empty() && l.index.is_empty(),
        };
        idle && self.done_count < self.state.len()
    }

    /// Commit-turn bookkeeping shared by the threaded driver
    /// ([`SimFabric::lock_turn`]) and the stepped driver
    /// ([`crate::stepper::run_stepped`]): throughput accounting, the
    /// chaos kill fault, and PCT priority reshuffles. `my_op` is the
    /// per-image op index the call's chaos delay was charged under.
    /// `Err(msg)` means this image was just killed — the caller must
    /// poison the fabric and panic with the message.
    pub(crate) fn grant_commit(&mut self, me: usize, my_op: u64) -> Result<(), String> {
        self.stats.record_sim_commit();
        #[cfg(test)]
        self.commit_log.push((me, my_op, self.time[me]));
        let ch = match self.chaos {
            Some(ch) => ch,
            None => return Ok(()),
        };
        // The kill fault fires at the victim's *commit turn*: every op
        // with a smaller (time, prio, rank) key has already committed,
        // none with a larger one has — so the fabric state at death is a
        // pure function of the seed and recovery runs are replayable.
        if ch.kill_image_at == Some((me, my_op)) {
            self.set_done(me);
            let msg = format!(
                "image {me} killed at t={}ns (chaos kill_image_at op {my_op})",
                self.time[me]
            );
            self.poisoned = Some(msg.clone());
            return Err(msg);
        }
        self.commits += 1;
        if ch.reorder && ch.pct_interval > 0 && self.commits.is_multiple_of(ch.pct_interval) {
            // PCT-style reshuffle: new tie-break priorities at a
            // deterministic point in the committed-op stream.
            let epoch = self.commits / ch.pct_interval;
            for i in 0..self.prio.len() {
                self.prio[i] = ch.image_priority(epoch, i);
            }
            self.resort_priorities();
        }
        Ok(())
    }

    /// Trace events shown per image in the deadlock report.
    const DEADLOCK_TRAIL: usize = 4;

    pub(crate) fn deadlock_report(&self) -> String {
        let mut msg =
            String::from("SimFabric deadlock: all images blocked, no messages in flight\n");
        for (i, s) in self.state.iter().enumerate() {
            if let ImgState::Blocked { flag, at_least } = s {
                msg.push_str(&format!(
                    "  image {i} @ t={}ns waits flag{} >= {} (current {})\n",
                    self.time[i], flag, at_least, self.flags[i][*flag]
                ));
                for ev in self.tracer.last_events(i, Self::DEADLOCK_TRAIL) {
                    msg.push_str(&format!("    recent: {}\n", ev.render()));
                }
            }
        }
        if !self.tracer.enabled() {
            msg.push_str(
                "  (install a tracer — `Tracer::for_images` — for \
                 per-image operation history)\n",
            );
        }
        msg
    }
}

/// Outcome of modeling one message: when it arrives, and how its cost
/// splits into queueing (waiting for the bus/NIC) vs service.
struct Transfer {
    arrival: u64,
    queue_ns: u64,
    service_ns: u64,
}

/// Recovery-rendezvous state: a wall-clock (not virtual-time) barrier of
/// the surviving images, used by [`Fabric::heal`] after a chaos kill.
#[derive(Default)]
struct HealState {
    /// Survivors currently parked in `heal`.
    waiting: usize,
    /// Completed heal rounds (the release signal for parked survivors).
    round: u64,
    /// Recovery generation exposed via [`Fabric::generation`].
    generation: u64,
}

/// The virtual-time simulation fabric. See the module docs for semantics.
pub struct SimFabric {
    map: ImageMap,
    pub(crate) cfg: SimConfig,
    stats: Arc<FabricStats>,
    pub(crate) core: Mutex<SimCore>,
    /// One condvar per image: commits wake only the next eligible image
    /// (the global argmin), not the whole herd — O(1) wakeups per commit.
    cvs: Vec<Condvar>,
    /// Recovery rendezvous (see [`Fabric::heal`]).
    heal: Mutex<HealState>,
    heal_cv: Condvar,
}

impl SimFabric {
    /// Build a fabric for the images of `map` with `cfg` cost parameters.
    pub fn new(map: ImageMap, cfg: SimConfig) -> Arc<Self> {
        let n = map.n_images();
        let nodes = map.machine().nodes;
        let sockets = nodes * map.machine().sockets_per_node;
        let gap_nic_ns = cfg.cost.gap_nic_ns + cfg.overheads.nic_busy_extra_ns;
        let tracer = cfg.tracer.clone();
        let stats = Arc::new(FabricStats::default());
        let chaos = cfg.chaos;
        let prio: Vec<u64> = match &chaos {
            Some(ch) => (0..n).map(|i| ch.image_priority(0, i)).collect(),
            None => vec![0; n],
        };
        // Everyone starts Alive at t=0 with its initial priority.
        let sched = if cfg.legacy_queue {
            let mut index = SchedIndex::new(n);
            for (i, &p) in prio.iter().enumerate() {
                index.insert(i, (0, p));
            }
            Sched::Legacy(Legacy {
                events: BinaryHeap::new(),
                index,
            })
        } else {
            // Highest rank first: each turn sorts before the ones already
            // in, which is what extends the queue's sorted run in O(1).
            let mut q = ShardedEvq::with_images(n);
            for (i, &p) in prio.iter().enumerate().rev() {
                q.set_turn(i, 0, p);
            }
            Sched::Queue(q)
        };
        let slots = cfg.bootstrap_slots.unwrap_or(n);
        Arc::new(Self {
            map,
            cfg: cfg.clone(),
            stats: stats.clone(),
            core: Mutex::new(SimCore {
                gap_nic_ns,
                time: vec![0; n],
                state: vec![ImgState::Alive; n],
                // Bootstrap resources: segment 0 and the control flags.
                segs: vec![vec![vec![0u8; slots * crate::bootstrap::SLOT_BYTES]]; n],
                flags: vec![vec![0u64; crate::bootstrap::NUM_FLAGS]; n],
                last_arrival: vec![0; n],
                node_bus_free: vec![0; nodes],
                socket_bus_free: vec![0; sockets],
                nic_free: vec![0; nodes],
                sched,
                done_count: 0,
                event_seq: 0,
                poisoned: None,
                stats,
                tracer,
                chaos,
                chaos_ops: vec![0; n],
                prio,
                commits: 0,
                #[cfg(test)]
                commit_log: Vec::new(),
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            heal: Mutex::new(HealState::default()),
            heal_cv: Condvar::new(),
        })
    }

    /// Convenience constructor with default (paper-calibrated) parameters.
    pub fn with_defaults(map: ImageMap) -> Arc<Self> {
        Self::new(map, SimConfig::default())
    }

    /// Maximum virtual time over all images — the makespan of the simulated
    /// execution so far.
    pub fn max_time_ns(&self) -> u64 {
        let core = self.core.lock();
        core.time.iter().copied().max().unwrap_or(0)
    }

    /// What the event-and-turn queue holds on to, against what it has had
    /// to hold (see [`Footprint`]); `None` on the legacy core, which has no
    /// such queue.
    pub fn queue_footprint(&self) -> Option<Footprint> {
        match &self.core.lock().sched {
            Sched::Queue(q) => Some(q.footprint()),
            Sched::Legacy(_) => None,
        }
    }

    /// Block (wall-clock) until image `me` holds the commit turn.
    fn lock_turn(&self, me: usize) -> MutexGuard<'_, SimCore> {
        let mut core = self.core.lock();
        let mut my_op = 0;
        if let Some(ch) = &self.cfg.chaos {
            // Charge this call's chaos delay up front, keyed by the
            // per-image op counter (deterministic regardless of which
            // wall-clock order threads reach this mutex in).
            let node = self.map.node_of(ProcId(me)).index();
            let op = core.chaos_ops[me];
            my_op = op;
            core.chaos_ops[me] += 1;
            let charged = core.time[me] + ch.op_delay(me, node, op);
            core.set_time(me, charged);
        }
        loop {
            if let Some(msg) = &core.poisoned {
                panic!("{msg}");
            }
            self.notify(&mut core);
            if core.may_commit(me) {
                if let Err(msg) = core.grant_commit(me, my_op) {
                    drop(core);
                    self.notify_everyone();
                    panic!("{msg}");
                }
                return core;
            }
            self.cvs[me].wait(&mut core);
        }
    }

    /// Drain the due events, then wake the images they unblocked and the
    /// next eligible image. Every path that moves a clock or a state ends
    /// here: whose turn it is can only be read off a drained queue, so a
    /// notify without the drain could be a wake-up lost.
    fn notify(&self, core: &mut SimCore) {
        let mut woken = Vec::new();
        core.apply_due_events(&mut woken);
        for &w in &woken {
            self.cvs[w].notify_one();
        }
        if let Some(next) = core.next_eligible() {
            self.cvs[next].notify_one();
        }
    }

    /// Wake every image thread (poison propagation).
    fn notify_everyone(&self) {
        for cv in &self.cvs {
            cv.notify_one();
        }
    }

    /// Model a one-sided message of `bytes` payload from `me` (clock `t`)
    /// to `dst`: reserve resources, advance the sender's clock, and — when
    /// `notify` is set — schedule the flag delivery. `Transfer::arrival` is
    /// a lower-bound arrival estimate used by `quiet` (exact for intra-node
    /// traffic; for inter-node traffic, receiver-NIC queueing may add
    /// time); `queue_ns`/`service_ns` split the message's cost into time
    /// spent waiting for the shared resource (bus or NIC) versus time being
    /// serviced by it — the split the trace reports per operation. `nb`
    /// marks a nonblocking put so its eventual `Landing` is counted as a
    /// completion (intra-node transfers are CPU-driven and complete before
    /// this returns; their completion is the caller's to record).
    #[allow(clippy::too_many_arguments)]
    fn model_transfer(
        &self,
        core: &mut SimCore,
        me: usize,
        dst: usize,
        t: u64,
        bytes: usize,
        notify: Option<(usize, u64)>,
        nb: bool,
    ) -> Transfer {
        let c = &self.cfg.cost;
        let o_sw = self.cfg.overheads.per_op_ns;
        let shm_ok = !self.cfg.overheads.intra_via_nic;
        let colocated = self.map.colocated(ProcId(me), ProcId(dst));
        let intra = colocated && shm_ok;
        let mk_notify = |(flag, delta): (usize, u64)| Notify {
            img: dst,
            flag,
            delta,
            src: me as u32,
            posted: t,
            intra: colocated,
        };
        if intra {
            // Sender CPU drives the copy through the node memory bus — or,
            // to a target on its own socket, the socket-local bus, with its
            // own gap and latency (the resource distinction behind the §VII
            // multi-level hierarchy).
            let ready = t + o_sw + c.o_intra_ns;
            let loc = self.map.location(ProcId(me));
            let (free, gap, lat) = if self.map.same_socket(ProcId(me), ProcId(dst)) {
                let spn = self.map.machine().sockets_per_node;
                let slot = loc.node.index() * spn + loc.socket.index();
                let free = &mut core.socket_bus_free[slot];
                (free, c.gap_socket_ns, c.l_socket_ns)
            } else {
                let free = &mut core.node_bus_free[loc.node.index()];
                (free, c.gap_intra_ns, c.l_intra_ns)
            };
            let busy = gap + c.intra_payload_ns(bytes);
            let start = reserve(free, ready, busy);
            let sender_end = start + busy;
            core.set_time(me, sender_end);
            let arrival = sender_end + lat;
            if let Some(n) = notify {
                core.push_event(arrival, EvKind::FlagArrive(mk_notify(n)));
            }
            Transfer {
                arrival,
                queue_ns: start - ready,
                service_ns: busy + lat,
            }
        } else {
            // Sender posts a descriptor; the NIC pipelines the transfer.
            // The receiver-side NIC slot is granted when the Landing event
            // comes due, keeping NIC service in virtual-time order.
            let ready = t + o_sw + c.o_inter_ns;
            core.set_time(me, ready);
            let src_node = self.map.node_of(ProcId(me)).index();
            let dst_node = self.map.node_of(ProcId(dst)).index();
            let mut gap = c.gap_nic_ns + self.cfg.overheads.nic_busy_extra_ns;
            if src_node == dst_node {
                gap += self.cfg.overheads.nic_loopback_extra_ns;
            }
            let busy = gap + c.inter_payload_ns(bytes);
            let inj = reserve(&mut core.nic_free[src_node], ready, busy);
            let mut wire_in = inj + busy + c.l_inter_ns;
            if nb {
                if let Some(ch) = &self.cfg.chaos {
                    // Fault injection: hold the nonblocking completion on
                    // the wire, and optionally land a duplicate (a NIC
                    // retransmission — it re-occupies the receiver NIC but
                    // is stats-neutral, so injected==completed still holds).
                    wire_in += ch.completion_delay_ns;
                    if ch.duplicate_completions {
                        core.push_event(
                            wire_in + c.gap_nic_ns,
                            EvKind::Landing {
                                node: dst_node,
                                notify: None,
                                nb: false,
                            },
                        );
                    }
                }
            }
            core.push_event(
                wire_in,
                EvKind::Landing {
                    node: dst_node,
                    notify: notify.map(mk_notify),
                    nb,
                },
            );
            Transfer {
                arrival: wire_in + c.gap_nic_ns,
                queue_ns: inj - ready,
                service_ns: busy + c.l_inter_ns + c.gap_nic_ns,
            }
        }
    }

    /// One remote atomic on `target`'s `u64` cell: a round trip (through the
    /// node bus or the NIC), then `update(old)` decides what — if anything —
    /// is stored. Returns the previous value.
    fn amo(
        &self,
        kind: EventKind,
        me: usize,
        target: usize,
        seg: SegmentId,
        offset: usize,
        update: impl FnOnce(u64) -> Option<u64>,
    ) -> u64 {
        let mut core = self.lock_turn(me);
        let t = core.time[me];
        let c = &self.cfg.cost;
        let o_sw = self.cfg.overheads.per_op_ns;
        let colocated = self.map.colocated(ProcId(me), ProcId(target));
        let mut queue_ns = 0;
        if me == target {
            core.set_time(me, t + o_sw + c.o_intra_ns);
        } else if colocated && !self.cfg.overheads.intra_via_nic {
            let ready = t + o_sw + c.o_intra_ns;
            let node = self.map.node_of(ProcId(me)).index();
            let start = reserve(&mut core.node_bus_free[node], ready, c.gap_intra_ns);
            queue_ns = start - ready;
            core.set_time(me, start + c.gap_intra_ns + 2 * c.l_intra_ns);
        } else {
            let ready = t + o_sw + c.o_inter_ns;
            let src_node = self.map.node_of(ProcId(me)).index();
            let gap = c.gap_nic_ns + self.cfg.overheads.nic_busy_extra_ns;
            let inj = reserve(&mut core.nic_free[src_node], ready, gap);
            queue_ns = inj - ready;
            let req_at = inj + gap + c.l_inter_ns;
            core.set_time(me, req_at + gap + c.l_inter_ns);
        }
        self.stats
            .amos
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dur = core.time[me] - t;
        let ev = Event::span(kind, t, dur)
            .a(target as u64)
            .b(offset as u64)
            .c(queue_ns)
            .d(dur - queue_ns);
        self.cfg.tracer.record(
            me,
            if me == target {
                ev.self_target()
            } else {
                ev.intra(colocated)
            },
        );
        let old = core.amo_cell(target, seg, offset, "AMO", update);
        self.finish_op(core);
        old
    }

    fn finish_op(&self, mut core: MutexGuard<'_, SimCore>) {
        self.notify(&mut core);
        drop(core);
    }

    // ---- op bodies -------------------------------------------------------
    //
    // The commit-time effect of each fabric op, factored out of the
    // threaded `Fabric` methods so the cooperative stepped driver
    // (`crate::stepper`) can apply the *identical* state transitions
    // without the per-image OS threads — the hosted-image mode that takes
    // simulations past sane thread counts. Callers must hold the commit
    // turn for `me` (threaded: via `lock_turn`; stepped: by construction,
    // the driver only runs the argmin image).

    /// Commit a put from `me` to `dst` — blocking ([`Fabric::put`]) or, with
    /// `nb`, nonblocking ([`Fabric::put_nb`]): the same transfer, except that
    /// a nonblocking one is counted as injected and, on the NIC path, as
    /// completed only when its `Landing` comes due.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn put_body(
        &self,
        core: &mut SimCore,
        me: usize,
        dst: usize,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
        nb: bool,
    ) -> PutToken {
        let t = core.time[me];
        let (kind, what) = if nb {
            (EventKind::PutNb, "put_nb")
        } else {
            (EventKind::Put, "put")
        };
        let mut token = PutToken::DONE;
        if me == dst {
            let c = &self.cfg.cost;
            let end = t + self.cfg.overheads.per_op_ns + c.intra_payload_ns(bytes.len());
            core.set_time(me, end);
            let dur = core.time[me] - t;
            self.cfg.tracer.record(
                me,
                Event::span(kind, t, dur)
                    .a(dst as u64)
                    .b(bytes.len() as u64)
                    .self_target(),
            );
        } else {
            let intra = self.map.colocated(ProcId(me), ProcId(dst));
            let tr = self.model_transfer(core, me, dst, t, bytes.len(), None, nb);
            core.last_arrival[me] = core.last_arrival[me].max(tr.arrival);
            if nb {
                self.stats.shared().record_put_nb(intra, bytes.len());
                if intra && !self.cfg.overheads.intra_via_nic {
                    // The sender's CPU drove the copy through the bus before
                    // model_transfer returned; only NIC-path transfers remain
                    // in flight after injection.
                    self.stats.shared().record_put_nb_complete();
                }
            } else {
                self.stats.shared().record_put(intra, bytes.len());
            }
            let dur = core.time[me] - t;
            self.cfg.tracer.record(
                me,
                Event::span(kind, t, dur)
                    .a(dst as u64)
                    .b(bytes.len() as u64)
                    .c(tr.queue_ns)
                    .d(tr.service_ns)
                    .intra(intra),
            );
            token = PutToken {
                arrival_ns: tr.arrival,
            };
        }
        core.window(dst, seg, offset, bytes.len(), what)
            .copy_from_slice(bytes);
        token
    }

    /// Commit a read of `me`'s own memory — the self arm of [`Fabric::get`],
    /// and the only read a hosted program can issue.
    pub(crate) fn get_body(
        &self,
        core: &mut SimCore,
        me: usize,
        seg: SegmentId,
        offset: usize,
        out: &mut [u8],
    ) {
        let t = core.time[me];
        let c = &self.cfg.cost;
        core.set_time(
            me,
            t + self.cfg.overheads.per_op_ns + c.intra_payload_ns(out.len()),
        );
        self.record_get(core, me, me, t, out.len(), 0);
        out.copy_from_slice(core.window(me, seg, offset, out.len(), "get"));
    }

    /// Record the span of a just-modeled get.
    fn record_get(&self, core: &SimCore, me: usize, src: usize, t: u64, len: usize, queue_ns: u64) {
        let dur = core.time[me] - t;
        let ev = Event::span(EventKind::Get, t, dur)
            .a(src as u64)
            .b(len as u64)
            .c(queue_ns)
            .d(dur - queue_ns);
        self.cfg.tracer.record(
            me,
            if me == src {
                ev.self_target()
            } else {
                ev.intra(self.map.colocated(ProcId(me), ProcId(src)))
            },
        );
    }

    /// Commit a flag add from `me` onto `target`; see [`Fabric::flag_add`].
    pub(crate) fn flag_add_body(
        &self,
        core: &mut SimCore,
        me: usize,
        target: usize,
        flag: FlagId,
        delta: u64,
    ) {
        let t = core.time[me];
        if me == target {
            let end = t + self.cfg.overheads.per_op_ns + self.cfg.cost.o_intra_ns;
            core.set_time(me, end);
            core.flag_bump(me, flag.0, delta);
            let now = core.time[me];
            self.cfg.tracer.record(
                me,
                Event::instant(EventKind::FlagAdd, t)
                    .a(target as u64)
                    .b(flag.0 as u64)
                    .c(delta)
                    .d(now)
                    .self_target(),
            );
            // A self-add delivers immediately; record it so critical-path
            // walks see every flag arrival, local ones included.
            core.tracer.record_system(
                Event::instant(EventKind::FlagDeliver, now)
                    .a(me as u64)
                    .b(flag.0 as u64)
                    .c(t)
                    .d(me as u64)
                    .intra(true),
            );
        } else {
            let intra = self.map.colocated(ProcId(me), ProcId(target));
            // A notification is an 8-byte put followed by a wakeup.
            let tr = self.model_transfer(core, me, target, t, 8, Some((flag.0, delta)), false);
            core.last_arrival[me] = core.last_arrival[me].max(tr.arrival);
            self.stats.shared().record_flag(intra);
            self.cfg.tracer.record(
                me,
                Event::instant(EventKind::FlagAdd, t)
                    .a(target as u64)
                    .b(flag.0 as u64)
                    .c(delta)
                    .d(tr.arrival)
                    .intra(intra),
            );
        }
    }

    /// Commit a signalled put from `me` to `dst`; see [`Fabric::put_flag`].
    /// To another image, on its node or across the network: one modeled
    /// transfer of the payload whose flag lands with it — the notification
    /// rides in the message, as an RDMA write-with-immediate's does —
    /// counted as one put and one flag. To itself, or with no payload, it
    /// is the two ops it stands for.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn put_flag_body(
        &self,
        core: &mut SimCore,
        me: usize,
        dst: usize,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
        flag: FlagId,
        delta: u64,
    ) {
        if me == dst || bytes.is_empty() {
            if !bytes.is_empty() {
                self.put_body(core, me, dst, seg, offset, bytes, false);
            }
            return self.flag_add_body(core, me, dst, flag, delta);
        }
        let t = core.time[me];
        let intra = self.map.colocated(ProcId(me), ProcId(dst));
        let notify = Some((flag.0, delta));
        let tr = self.model_transfer(core, me, dst, t, bytes.len(), notify, false);
        core.last_arrival[me] = core.last_arrival[me].max(tr.arrival);
        self.stats.shared().record_put(intra, bytes.len());
        self.stats.shared().record_flag(intra);
        let dur = core.time[me] - t;
        let put = Event::span(EventKind::Put, t, dur)
            .a(dst as u64)
            .b(bytes.len() as u64)
            .c(tr.queue_ns)
            .d(tr.service_ns);
        self.cfg.tracer.record(me, put.intra(intra));
        let add = Event::instant(EventKind::FlagAdd, t)
            .a(dst as u64)
            .b(flag.0 as u64)
            .c(delta)
            .d(tr.arrival);
        self.cfg.tracer.record(me, add.intra(intra));
        core.window(dst, seg, offset, bytes.len(), "put_flag")
            .copy_from_slice(bytes);
    }

    /// Commit the entry of a flag wait: charge the poll cost, then either
    /// satisfy immediately (returns `true`, wait span recorded) or park
    /// the image as Blocked (returns `false`; the caller records the span
    /// via [`Self::record_wait_span`] once the wake lands).
    pub(crate) fn flag_wait_enter(
        &self,
        core: &mut SimCore,
        me: usize,
        flag: FlagId,
        at_least: u64,
    ) -> bool {
        self.stats
            .flag_waits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let t_entry = core.time[me];
        let end = t_entry + self.cfg.overheads.per_wait_ns + self.cfg.cost.poll_ns;
        if *core.flag_mut(me, flag.0) >= at_least {
            core.set_time(me, end);
            self.record_wait_span(core, me, t_entry, flag, at_least);
            return true;
        }
        core.block_at(me, end, flag.0, at_least);
        false
    }

    /// Record the `FlagWait` span for a wait entered at `t_entry` that has
    /// just completed (image `me` is Alive again, clock at wake time).
    pub(crate) fn record_wait_span(
        &self,
        core: &SimCore,
        me: usize,
        t_entry: u64,
        flag: FlagId,
        at_least: u64,
    ) {
        self.cfg.tracer.record(
            me,
            Event::span(EventKind::FlagWait, t_entry, core.time[me] - t_entry)
                .a(flag.0 as u64)
                .b(at_least),
        );
    }

    /// Commit a compute block; see [`Fabric::compute`].
    pub(crate) fn compute_body(&self, core: &mut SimCore, me: usize, ns: u64) {
        let scaled = self.cfg.overheads.scale_compute(ns);
        let t = core.time[me];
        self.cfg
            .tracer
            .record(me, Event::span(EventKind::Compute, t, scaled));
        core.set_time(me, t + scaled);
    }
}

impl Fabric for SimFabric {
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
        let mut core = self.core.lock();
        let me = me.index();
        let id = core.segs[me].len();
        if bytes > 0 {
            core.segs[me].push(vec![0u8; bytes]);
        }
        drop(core);
        SegmentId(id)
    }

    fn alloc_flags(&self, me: ProcId, count: usize) -> FlagId {
        let mut core = self.core.lock();
        let me = me.index();
        let id = core.flags[me].len();
        core.flags[me].resize(id + count, 0);
        drop(core);
        FlagId(id)
    }

    fn put(&self, me: ProcId, dst: ProcId, seg: SegmentId, offset: usize, bytes: &[u8]) {
        let (me, dst) = (me.index(), dst.index());
        let mut core = self.lock_turn(me);
        self.put_body(&mut core, me, dst, seg, offset, bytes, false);
        self.finish_op(core);
    }

    fn put_nb(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
    ) -> PutToken {
        let (me, dst) = (me.index(), dst.index());
        let mut core = self.lock_turn(me);
        let token = self.put_body(&mut core, me, dst, seg, offset, bytes, true);
        self.finish_op(core);
        token
    }

    fn put_test(&self, me: ProcId, token: PutToken) -> bool {
        let me = me.index();
        let mut core = self.core.lock();
        let polled = core.time[me] + self.cfg.cost.poll_ns;
        core.set_time(me, polled);
        let done = core.time[me] >= token.arrival_ns;
        self.notify(&mut core);
        drop(core);
        done
    }

    fn put_wait(&self, me: ProcId, token: PutToken) {
        let me = me.index();
        let mut core = self.core.lock();
        let t = core.time[me];
        core.set_time(me, t.max(token.arrival_ns));
        self.cfg
            .tracer
            .record(me, Event::span(EventKind::Quiet, t, core.time[me] - t));
        self.notify(&mut core);
        drop(core);
    }

    fn get(&self, me: ProcId, src: ProcId, seg: SegmentId, offset: usize, out: &mut [u8]) {
        let (me, src) = (me.index(), src.index());
        let mut core = self.lock_turn(me);
        if me == src {
            self.get_body(&mut core, me, seg, offset, out);
            return self.finish_op(core);
        }
        let t = core.time[me];
        let c = &self.cfg.cost;
        let o_sw = self.cfg.overheads.per_op_ns;
        let intra =
            self.map.colocated(ProcId(me), ProcId(src)) && !self.cfg.overheads.intra_via_nic;
        let queue_ns;
        if intra {
            let ready = t + o_sw + c.o_intra_ns;
            let busy = c.gap_intra_ns + c.intra_payload_ns(out.len());
            let node = self.map.node_of(ProcId(me)).index();
            let start = reserve(&mut core.node_bus_free[node], ready, busy);
            queue_ns = start - ready;
            core.set_time(me, start + busy + c.l_intra_ns);
        } else {
            // RDMA get: request wire + response wire + payload on response.
            // Only the requester's NIC is reserved (at near-commit time);
            // remote-side queueing is approximated by the unloaded gap, so
            // get-heavy all-to-one patterns slightly underestimate
            // contention — collectives use puts, so this path is cold.
            let ready = t + o_sw + c.o_inter_ns;
            let src_node = self.map.node_of(ProcId(me)).index();
            let gap = c.gap_nic_ns + self.cfg.overheads.nic_busy_extra_ns;
            let inj = reserve(&mut core.nic_free[src_node], ready, gap);
            queue_ns = inj - ready;
            let req_at = inj + gap + c.l_inter_ns;
            let busy = gap + c.inter_payload_ns(out.len());
            core.set_time(me, req_at + busy + c.l_inter_ns);
        }
        self.stats.shared().record_get(intra, out.len());
        self.record_get(&core, me, src, t, out.len(), queue_ns);
        out.copy_from_slice(core.window(src, seg, offset, out.len(), "get"));
        self.finish_op(core);
    }

    fn amo_fetch_add_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        delta: u64,
    ) -> u64 {
        let (kind, me, target) = (EventKind::AmoFetchAdd, me.index(), target.index());
        self.amo(kind, me, target, seg, offset, |old| {
            Some(old.wrapping_add(delta))
        })
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
        let (kind, me, target) = (EventKind::AmoCas, me.index(), target.index());
        self.amo(kind, me, target, seg, offset, |old| {
            (old == expected).then_some(new)
        })
    }

    fn flag_add(&self, me: ProcId, target: ProcId, flag: FlagId, delta: u64) {
        let (me, target) = (me.index(), target.index());
        let mut core = self.lock_turn(me);
        self.flag_add_body(&mut core, me, target, flag, delta);
        self.finish_op(core);
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
        let (me, dst) = (me.index(), dst.index());
        let mut core = self.lock_turn(me);
        self.put_flag_body(&mut core, me, dst, seg, offset, bytes, flag, delta);
        self.finish_op(core);
    }

    fn flag_wait_ge(&self, me: ProcId, flag: FlagId, at_least: u64) {
        let me = me.index();
        let mut core = self.lock_turn(me);
        let t_entry = core.time[me];
        if self.flag_wait_enter(&mut core, me, flag, at_least) {
            self.finish_op(core);
            return;
        }
        self.notify(&mut core);
        loop {
            if let Some(msg) = &core.poisoned {
                panic!("{msg}");
            }
            if matches!(core.state[me], ImgState::Alive) {
                break;
            }
            if core.is_deadlocked() {
                let msg = core.deadlock_report();
                core.poisoned = Some(msg.clone());
                self.notify_everyone();
                panic!("{msg}");
            }
            self.cvs[me].wait(&mut core);
        }
        self.record_wait_span(&core, me, t_entry, flag, at_least);
        self.finish_op(core);
    }

    fn flag_read(&self, me: ProcId, flag: FlagId) -> u64 {
        let me = me.index();
        let mut core = self.lock_turn(me);
        let polled = core.time[me] + self.cfg.cost.poll_ns;
        core.set_time(me, polled);
        let v = *core.flag_mut(me, flag.0);
        self.finish_op(core);
        v
    }

    fn quiet(&self, me: ProcId) {
        let me = me.index();
        let mut core = self.core.lock();
        let t = core.time[me];
        let settled = t.max(core.last_arrival[me]);
        core.set_time(me, settled);
        self.cfg
            .tracer
            .record(me, Event::span(EventKind::Quiet, t, core.time[me] - t));
        self.notify(&mut core);
        drop(core);
    }

    fn compute(&self, me: ProcId, ns: u64) {
        let me = me.index();
        let mut core = self.core.lock();
        self.compute_body(&mut core, me, ns);
        self.notify(&mut core);
        drop(core);
    }

    fn now_ns(&self, me: ProcId) -> u64 {
        self.core.lock().time[me.index()]
    }

    fn poison(&self, msg: &str) {
        let mut core = self.core.lock();
        if core.poisoned.is_none() {
            core.poisoned = Some(msg.to_string());
        }
        drop(core);
        self.notify_everyone();
    }

    fn image_done(&self, me: ProcId) {
        let me = me.index();
        let mut core = self.core.lock();
        core.set_done(me);
        self.notify(&mut core);
        if core.is_deadlocked() {
            let msg = core.deadlock_report();
            core.poisoned = Some(msg);
            self.notify_everyone();
        }
        drop(core);
    }

    fn health(&self) -> Result<(), RecoveryError> {
        match &self.core.lock().poisoned {
            Some(msg) => Err(RecoveryError::Poisoned(msg.clone())),
            None => Ok(()),
        }
    }

    fn alive_images(&self) -> Vec<ProcId> {
        self.core
            .lock()
            .state
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s, ImgState::Done))
            .map(|(i, _)| ProcId(i))
            .collect()
    }

    fn generation(&self) -> u64 {
        self.heal.lock().generation
    }

    fn heal(&self, me: ProcId) -> Result<(), RecoveryError> {
        // A retired image must not join the survivor rendezvous: it would
        // be counted against the quorum and stall the reset.
        if matches!(self.core.lock().state[me.index()], ImgState::Done) {
            return Err(RecoveryError::HealFailed(format!(
                "image {} is retired and cannot heal",
                me.index()
            )));
        }
        let mut hs = self.heal.lock();
        hs.waiting += 1;
        let round = hs.round;
        // Survivors expected in this round: every non-retired image. The
        // count is stable here — kills commit before recovery begins.
        let expected = self
            .core
            .lock()
            .state
            .iter()
            .filter(|s| !matches!(s, ImgState::Done))
            .count();
        if hs.waiting >= expected {
            // Last survivor in: perform the global reset exactly once.
            let mut guard = self.core.lock();
            let core = &mut *guard;
            core.reset_pending();
            for i in 0..core.state.len() {
                core.flags[i] = vec![0; crate::bootstrap::NUM_FLAGS];
                core.segs[i].truncate(crate::bootstrap::NUM_SEGS);
                core.segs[i][crate::bootstrap::SEG.0].fill(0);
                core.last_arrival[i] = 0;
            }
            core.poisoned = None;
            drop(guard);
            hs.waiting = 0;
            hs.round += 1;
            hs.generation += 1;
            drop(hs);
            self.heal_cv.notify_all();
            self.notify_everyone();
        } else {
            while hs.round == round {
                self.heal_cv.wait(&mut hs);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::run_spmd;
    use caf_topology::{presets, Placement};

    // NOTE: fabric allocation is image-local, so these tests either use the
    // pre-created bootstrap resources (race-free by construction) or
    // synchronize between allocation and first remote access, exactly as
    // the runtime's team formation does for real programs.

    const SPARE_FLAG: FlagId = FlagId(2);
    #[allow(dead_code)]
    const SPARE_FLAG2: FlagId = FlagId(3);
    const BSEG: SegmentId = crate::bootstrap::SEG;

    fn sim(nodes: usize, cores: usize, images: usize, per_node: usize) -> Arc<SimFabric> {
        let map = ImageMap::new(
            presets::mini(nodes, cores),
            images,
            &Placement::Block { per_node },
        );
        SimFabric::new(
            map,
            SimConfig {
                cost: presets::whale_cost(),
                overheads: SoftwareOverheads::NONE,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn single_image_put_get_roundtrip() {
        let f = sim(1, 1, 1, 1);
        let me = ProcId(0);
        let seg = f.alloc_segment(me, 64);
        f.put(me, me, seg, 8, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        f.get(me, me, seg, 8, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        assert!(f.now_ns(me) > 0);
        f.image_done(me);
    }

    #[test]
    fn two_images_flag_synchronization_and_data() {
        let f = sim(1, 2, 2, 2);
        let f2 = f.clone();
        run_spmd(f, move |me| {
            if me == ProcId(0) {
                f2.put(me, ProcId(1), BSEG, 0, &7u64.to_ne_bytes());
                f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            } else {
                f2.flag_wait_ge(me, SPARE_FLAG, 1);
                let mut out = [0u8; 8];
                f2.get(me, me, BSEG, 0, &mut out);
                assert_eq!(u64::from_ne_bytes(out), 7);
            }
            f2.image_done(me);
        });
    }

    #[test]
    fn intra_node_notification_arrival_time_matches_model() {
        // One sender, one receiver on the same node, nothing else: arrival =
        // o_intra + gap_intra + l_intra; receiver time = arrival (wait poll
        // cost added before blocking).
        let f = sim(1, 2, 2, 2);
        let c = presets::whale_cost();
        let expected_arrival = c.o_intra_ns + c.gap_intra_ns + c.intra_payload_ns(8) + c.l_intra_ns;
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            } else {
                f2.flag_wait_ge(me, SPARE_FLAG, 1);
                assert_eq!(f2.now_ns(me), expected_arrival);
            }
            f2.image_done(me);
        });
    }

    #[test]
    fn inter_node_notification_is_much_slower() {
        let f = sim(2, 1, 2, 1);
        let c = presets::whale_cost();
        // o_inter + gap_nic (+8B payload ~5ns) + l_inter + gap_nic(recv) ...
        let min_expected = c.o_inter_ns + c.gap_nic_ns + c.l_inter_ns;
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            } else {
                f2.flag_wait_ge(me, SPARE_FLAG, 1);
                let t = f2.now_ns(me);
                assert!(t >= min_expected, "t={t} < {min_expected}");
                assert!(t < 2 * min_expected, "t={t} unexpectedly large");
            }
            f2.image_done(me);
        });
    }

    #[test]
    fn same_node_notifications_serialize_on_the_bus() {
        // 7 senders notify image 0, all on one node: arrivals must be spaced
        // by at least gap_intra (the §IV-A serialization effect).
        let f = sim(1, 8, 8, 8);
        let c = presets::whale_cost();
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                f2.flag_wait_ge(me, SPARE_FLAG, 7);
                let t = f2.now_ns(me);
                // 7 serialized bus slots of gap_intra each, plus o + l.
                let min = c.o_intra_ns + 7 * c.gap_intra_ns + c.l_intra_ns;
                assert!(t >= min, "t={t} < serialized bound {min}");
            } else {
                f2.flag_add(me, ProcId(0), SPARE_FLAG, 1);
            }
            f2.image_done(me);
        });
    }

    #[test]
    fn cross_node_notifications_proceed_in_parallel() {
        // 7 senders on 7 *different* nodes notify image 0: the receiver NIC
        // serializes landings (gap_nic each), but the wires run in parallel,
        // so total ≈ l_inter + 7·gap_nic, far below 7 serialized wire trips.
        let f = sim(8, 1, 8, 1);
        let c = presets::whale_cost();
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                f2.flag_wait_ge(me, SPARE_FLAG, 7);
                let t = f2.now_ns(me);
                let serial_bound = 7 * (c.o_inter_ns + c.l_inter_ns);
                assert!(
                    t < serial_bound,
                    "t={t} not parallel (bound {serial_bound})"
                );
            } else {
                f2.flag_add(me, ProcId(0), SPARE_FLAG, 1);
            }
            f2.image_done(me);
        });
    }

    #[test]
    fn determinism_same_program_same_virtual_times() {
        let run = || {
            let f = sim(2, 4, 8, 4);
            let f2 = f.clone();
            let times = std::sync::Arc::new(Mutex::new(vec![0u64; 8]));
            let t2 = times.clone();
            run_spmd(f.clone(), move |me| {
                // All-to-one then one-to-all.
                if me == ProcId(0) {
                    f2.flag_wait_ge(me, SPARE_FLAG, 7);
                    for j in 1..8 {
                        f2.flag_add(me, ProcId(j), SPARE_FLAG, 1);
                    }
                } else {
                    f2.flag_add(me, ProcId(0), SPARE_FLAG, 1);
                    f2.flag_wait_ge(me, SPARE_FLAG, 1);
                }
                t2.lock()[me.index()] = f2.now_ns(me);
                f2.image_done(me);
            });
            let v = times.lock().clone();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batched_am_delivery_matches_unbatched_oracle() {
        use crate::am::Am;
        use crate::batch::AmPolicy;
        use crate::ArcFabric;
        // 7 images storm image 0 with small put+flag AMs. The batched run
        // hands each sender's storm to `am_deliver` as one batch, which
        // replays it op by op in slice order; the unbatched policy hands
        // over one op at a time. Final data
        // and flag state must match bit-for-bit, and the batched schedule
        // must be deterministic — without chaos and under two chaos seeds,
        // the same chaos driving both sides.
        let run = |policy: AmPolicy, chaos: Option<ChaosConfig>| {
            let map = ImageMap::new(presets::mini(2, 4), 8, &Placement::Block { per_node: 4 });
            let f = SimFabric::new(
                map,
                SimConfig {
                    cost: presets::whale_cost(),
                    overheads: SoftwareOverheads::NONE,
                    chaos,
                    ..SimConfig::default()
                },
            );
            let f2 = f.clone();
            let out = Arc::new(Mutex::new((vec![0u8; 7 * 8], 0u64, vec![0u64; 8])));
            let o2 = out.clone();
            run_spmd(f.clone(), move |me| {
                if me == ProcId(0) {
                    f2.flag_wait_ge(me, SPARE_FLAG, 7 * 3);
                    let mut buf = vec![0u8; 7 * 8];
                    f2.get(me, me, BSEG, 0, &mut buf);
                    // Read before locking: a turn-taking call made under
                    // the test's own mutex would wait for an image that is
                    // waiting for the mutex.
                    let total = f2.flag_read(me, SPARE_FLAG);
                    let mut g = o2.lock();
                    g.0 = buf;
                    g.1 = total;
                } else {
                    let af: ArcFabric = f2.clone();
                    let mut am = Am::new(af, me, policy);
                    let base = (me.index() - 1) * 8;
                    for round in 1..=3u64 {
                        let v = me.index() as u64 * 100 + round;
                        am.put(ProcId(0), BSEG, base, &v.to_le_bytes());
                        am.flag_add(ProcId(0), SPARE_FLAG, 1);
                    }
                    am.quiet();
                }
                o2.lock().2[me.index()] = f2.now_ns(me);
                f2.image_done(me);
            });
            let g = out.lock().clone();
            g
        };
        let wide = AmPolicy {
            batch_bytes: 1 << 20,
            batch_ops: 64,
            flush_age_ns: u64::MAX,
        };
        for chaos in [None, Some(5), Some(17)].map(|s| s.map(ChaosConfig::from_seed)) {
            let batched = run(wide, chaos);
            let oracle = run(AmPolicy::unbatched(), chaos);
            assert_eq!(batched.0, oracle.0, "payload bytes diverge ({chaos:?})");
            assert_eq!(batched.1, oracle.1, "flag totals diverge ({chaos:?})");
            // Virtual times differ between policies (the batcher fuses each
            // put+flag pair into one `put_flag`) but the batched schedule
            // itself must be reproducible.
            let again = run(wide, chaos);
            assert_eq!(
                batched, again,
                "batched run is not deterministic ({chaos:?})"
            );
        }
    }

    /// An active-message AMO off an 8-byte boundary is refused on the
    /// simulator — delivered to itself or to another image — as it is on
    /// real memory.
    #[test]
    fn a_misaligned_am_amo_panics_as_on_threads() {
        use crate::am::AmOp;
        use crate::thread::{ThreadConfig, ThreadFabric};
        use crate::ArcFabric;
        let op = [AmOp::AmoAdd {
            seg: BSEG,
            off: 4,
            delta: 1,
        }];
        for dst in [ProcId(0), ProcId(1)] {
            let map = ImageMap::new(presets::mini(1, 2), 2, &Placement::Packed);
            let threads = ThreadFabric::new(map, ThreadConfig::default());
            let fabrics: [ArcFabric; 2] = [sim(1, 2, 2, 2), threads];
            for f in fabrics {
                let delivered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    f.am_deliver(ProcId(0), dst, &op)
                }));
                let msg = crate::panic_message(delivered.expect_err("misaligned").as_ref());
                assert!(
                    msg.contains("AMO offset 4 not 8-byte aligned"),
                    "{dst:?}: {msg}"
                );
            }
        }
    }

    #[test]
    fn deadlock_is_detected_and_panics_everywhere() {
        let f = sim(1, 2, 2, 2);
        let mut handles = Vec::new();
        for i in 0..2 {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                let me = ProcId(i);
                // Both images wait; nobody notifies: deadlock.
                f.flag_wait_ge(me, SPARE_FLAG, 1);
                f.image_done(me);
            }));
        }
        let mut panics = 0;
        for h in handles {
            if h.join().is_err() {
                panics += 1;
            }
        }
        assert_eq!(panics, 2, "both images must observe the deadlock");
    }

    #[test]
    fn compute_advances_virtual_time_scaled() {
        let map = ImageMap::new(presets::mini(1, 1), 1, &Placement::Packed);
        let f = SimFabric::new(
            map,
            SimConfig {
                cost: presets::whale_cost(),
                overheads: SoftwareOverheads {
                    per_op_ns: 0,
                    per_wait_ns: 0,
                    compute_milli: 2000,
                    intra_via_nic: false,
                    nic_busy_extra_ns: 0,
                    nic_loopback_extra_ns: 0,
                },
                ..SimConfig::default()
            },
        );
        f.compute(ProcId(0), 1000);
        assert_eq!(f.now_ns(ProcId(0)), 2000);
        f.image_done(ProcId(0));
    }

    #[test]
    fn quiet_waits_for_outstanding_puts() {
        let f = sim(2, 1, 2, 1);
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                let before = f2.now_ns(me);
                f2.put(me, ProcId(1), BSEG, 0, &[1u8; 8]);
                // The descriptor post returns quickly...
                let posted = f2.now_ns(me);
                assert!(posted - before < f2.cost().l_inter_ns);
                // ...but quiet() must cover the full wire latency.
                f2.quiet(me);
                assert!(f2.now_ns(me) >= before + f2.cost().l_inter_ns);
            }
            f2.image_done(me);
        });
    }

    #[test]
    fn quiet_wakes_the_image_behind_an_undrained_event() {
        use crate::stepper::{run_stepped, StepOp, StepProgram};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        // Image 0 puts to image 1 (another node) and quiets; image 1 sits
        // parked for its turn at exactly the put's landing time. When the
        // quiet moves image 0's clock past that, the queue's head is the
        // Landing event (due: events sort before turns of their time) and
        // image 1's turn is right behind it. A notify that read the head
        // without draining it would wake nobody, and image 0 — which makes
        // no further fabric call until image 1 is through — would never
        // give anyone a second chance.
        let c = presets::whale_cost();
        let posted = c.o_inter_ns;
        let landing = posted + c.gap_nic_ns + c.inter_payload_ns(8) + c.l_inter_ns;
        let arrival = landing + c.gap_nic_ns;
        let f = sim(2, 1, 2, 1);
        let f2 = f.clone();
        let parked = Arc::new(AtomicBool::new(false));
        let through = Arc::new(AtomicBool::new(false));
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                while !parked.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Let image 1 reach its condvar (if it has not, it finds
                // its turn by itself and the test passes vacuously).
                std::thread::sleep(Duration::from_millis(50));
                f2.put(me, ProcId(1), BSEG, 0, &7u64.to_ne_bytes());
                assert_eq!(f2.now_ns(me), posted);
                f2.quiet(me);
                assert_eq!(f2.now_ns(me), arrival);
                let t0 = Instant::now();
                while !through.load(Ordering::Acquire) {
                    if t0.elapsed() > Duration::from_secs(10) {
                        f2.poison("image 1 was never told that its turn had come");
                        panic!("quiet lost a wake-up");
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                f2.compute(me, landing);
                parked.store(true, Ordering::Release);
                f2.flag_add(me, me, SPARE_FLAG, 1);
                through.store(true, Ordering::Release);
            }
            f2.image_done(me);
        });
        let threaded = [f.now_ns(ProcId(0)), f.now_ns(ProcId(1))];
        assert_eq!(threaded, [arrival, landing + c.o_intra_ns]);

        // The same clocks from the stepped driver (a compute stands in for
        // the quiet: same clock, and it holds no turn either).
        struct Script(std::vec::IntoIter<StepOp>);
        impl StepProgram for Script {
            fn next(&mut self) -> StepOp {
                self.0.next().unwrap_or(StepOp::Done)
            }
        }
        let put = StepOp::Put {
            dst: 1,
            offset: 0,
            val: 7,
        };
        let settle = StepOp::Compute {
            ns: arrival - posted,
        };
        let add = StepOp::FlagAdd {
            dst: 1,
            flag: SPARE_FLAG,
            delta: 1,
        };
        let g = sim(2, 1, 2, 1);
        run_stepped(
            &g,
            vec![
                Script(vec![put, settle].into_iter()),
                Script(vec![StepOp::Compute { ns: landing }, add].into_iter()),
            ],
        );
        assert_eq!([g.now_ns(ProcId(0)), g.now_ns(ProcId(1))], threaded);
    }

    #[test]
    fn put_nb_returns_before_wire_and_put_wait_covers_it() {
        let f = sim(2, 1, 2, 1);
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                let before = f2.now_ns(me);
                let tok = f2.put_nb(me, ProcId(1), BSEG, 0, &[3u8; 8]);
                // Injection costs only the descriptor post...
                let posted = f2.now_ns(me);
                assert!(posted - before < f2.cost().l_inter_ns);
                assert!(!f2.put_test(me, tok), "wire latency not yet elapsed");
                // ...and put_wait covers the full wire latency.
                f2.put_wait(me, tok);
                assert!(f2.now_ns(me) >= before + f2.cost().l_inter_ns);
                assert!(f2.put_test(me, tok));
                f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            } else {
                f2.flag_wait_ge(me, SPARE_FLAG, 1);
                let mut out = [0u8; 8];
                f2.get(me, me, BSEG, 0, &mut out);
                assert_eq!(out, [3u8; 8]);
            }
            f2.image_done(me);
        });
        let s = f.stats().snapshot();
        assert_eq!(s.puts_nb_injected, 1);
        assert_eq!(s.puts_nb_completed, 1, "landing drains by run end");
    }

    #[test]
    fn intra_node_put_nb_completes_at_injection() {
        let f = sim(1, 2, 2, 2);
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                f2.put_nb(me, ProcId(1), BSEG, 0, &[9u8; 16]);
                let s = f2.stats().snapshot();
                assert_eq!(s.puts_nb_injected, 1);
                assert_eq!(s.puts_nb_completed, 1, "CPU-driven copy is done");
                f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            } else {
                f2.flag_wait_ge(me, SPARE_FLAG, 1);
            }
            f2.image_done(me);
        });
    }

    #[test]
    fn put_nb_determinism_same_virtual_times() {
        // The satellite determinism guarantee: a program full of nonblocking
        // puts commits in the same virtual-time order on every run.
        let run = || {
            let f = sim(2, 4, 8, 4);
            let f2 = f.clone();
            let times = std::sync::Arc::new(Mutex::new(vec![0u64; 8]));
            let t2 = times.clone();
            run_spmd(f.clone(), move |me| {
                if me == ProcId(0) {
                    f2.flag_wait_ge(me, SPARE_FLAG, 7);
                    for j in 1..8 {
                        f2.flag_add(me, ProcId(j), SPARE_FLAG, 1);
                    }
                } else {
                    // Stream chunks at image 0, then announce them.
                    let mut tok = crate::PutToken::DONE;
                    for c in 0..4usize {
                        tok = f2.put_nb(me, ProcId(0), BSEG, 8 * c, &[me.index() as u8; 8]);
                    }
                    f2.put_wait(me, tok);
                    f2.flag_add(me, ProcId(0), SPARE_FLAG, 1);
                    f2.flag_wait_ge(me, SPARE_FLAG, 1);
                }
                t2.lock()[me.index()] = f2.now_ns(me);
                f2.image_done(me);
            });
            let v = times.lock().clone();
            v
        };
        assert_eq!(run(), run());
    }

    /// All-to-one then one-to-all under a given chaos config; returns the
    /// final per-image virtual times (a schedule fingerprint).
    fn chaos_fingerprint(chaos: Option<ChaosConfig>) -> Vec<u64> {
        fingerprint(false, chaos)
    }

    fn fingerprint(legacy_queue: bool, chaos: Option<ChaosConfig>) -> Vec<u64> {
        let map = ImageMap::new(presets::mini(2, 4), 8, &Placement::Block { per_node: 4 });
        let f = SimFabric::new(
            map,
            SimConfig {
                cost: presets::whale_cost(),
                overheads: SoftwareOverheads::NONE,
                chaos,
                legacy_queue,
                ..SimConfig::default()
            },
        );
        let f2 = f.clone();
        let times = std::sync::Arc::new(Mutex::new(vec![0u64; 8]));
        let t2 = times.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                f2.flag_wait_ge(me, SPARE_FLAG, 7);
                for j in 1..8 {
                    f2.flag_add(me, ProcId(j), SPARE_FLAG, 1);
                }
            } else {
                f2.put_nb(me, ProcId(0), BSEG, 8 * me.index(), &[me.index() as u8; 8]);
                f2.flag_add(me, ProcId(0), SPARE_FLAG, 1);
                f2.flag_wait_ge(me, SPARE_FLAG, 1);
            }
            t2.lock()[me.index()] = f2.now_ns(me);
            f2.image_done(me);
        });
        let v = times.lock().clone();
        v
    }

    #[test]
    fn one_queue_matches_legacy_bit_for_bit() {
        // The determinism guarantee: the one-queue core and the pre-scale
        // global heap with its scans produce identical schedules
        // (virtual-time fingerprints), with and without chaos reordering.
        assert_eq!(fingerprint(true, None), fingerprint(false, None));
        for seed in [3u64, 11, 29] {
            let chaos = ChaosConfig::from_seed(seed);
            assert_eq!(
                fingerprint(true, Some(chaos)),
                fingerprint(false, Some(chaos)),
                "schedules diverged for chaos seed {seed}"
            );
        }
    }

    #[test]
    fn bootstrap_slot_cap_bounds_the_segment() {
        let map = ImageMap::new(presets::mini(1, 1), 1, &Placement::Packed);
        let f = SimFabric::new(
            map,
            SimConfig {
                cost: presets::whale_cost(),
                bootstrap_slots: Some(4),
                ..SimConfig::default()
            },
        );
        let me = ProcId(0);
        // Low offsets work; the segment is exactly 4 slots.
        f.put(me, me, BSEG, 0, &[7u8; 8]);
        let cap = 4 * crate::bootstrap::SLOT_BYTES;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.put(me, me, BSEG, cap, &[1u8]);
        }));
        assert!(r.is_err(), "past-the-cap put must hit the bounds assert");
    }

    #[test]
    fn sim_stats_track_events_and_commits() {
        let f = sim(2, 1, 2, 1);
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(0) {
                f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            } else {
                f2.flag_wait_ge(me, SPARE_FLAG, 1);
            }
            f2.image_done(me);
        });
        let s = f.stats().snapshot();
        // One inter-node flag_add = a Landing plus its FlagArrive.
        assert_eq!(s.sim_events_pushed, 2);
        assert_eq!(s.sim_events_popped, 2, "queue drains by run end");
        assert!(s.sim_queue_hwm >= 1);
        assert_eq!(s.sim_wakeups, 1, "the waiter wakes exactly once");
        // flag_add + flag_wait are the only turn-taking ops here.
        assert_eq!(s.sim_commits, 2);
    }

    #[test]
    fn chaos_same_seed_same_schedule() {
        let a = chaos_fingerprint(Some(ChaosConfig::from_seed(11)));
        let b = chaos_fingerprint(Some(ChaosConfig::from_seed(11)));
        assert_eq!(a, b, "a chaos seed must fully determine the schedule");
    }

    #[test]
    fn chaos_different_seeds_differ_and_off_matches_default() {
        let a = chaos_fingerprint(Some(ChaosConfig::from_seed(1)));
        let b = chaos_fingerprint(Some(ChaosConfig::from_seed(2)));
        assert_ne!(a, b, "different seeds should perturb virtual times");
        // ChaosConfig::off leaves every knob at zero: identical schedule
        // (and virtual times) to the plain scheduler.
        assert_eq!(
            chaos_fingerprint(Some(ChaosConfig::off(5))),
            chaos_fingerprint(None)
        );
    }

    #[test]
    fn chaos_faults_terminate_and_slow_the_victims() {
        let chaos = ChaosConfig {
            stalled_image: Some(3),
            stall_ns: 10_000,
            completion_delay_ns: 2_000,
            duplicate_completions: true,
            ..ChaosConfig::off(9)
        };
        let t = chaos_fingerprint(Some(chaos));
        let base = chaos_fingerprint(None);
        assert!(
            t[3] > base[3],
            "stalled image should finish later ({} vs {})",
            t[3],
            base[3]
        );
    }

    #[test]
    #[should_panic(expected = "sync flag counter overflow")]
    fn flag_counter_overflow_is_caught() {
        let f = sim(1, 1, 1, 1);
        let me = ProcId(0);
        f.flag_add(me, me, SPARE_FLAG, u64::MAX);
        f.flag_add(me, me, SPARE_FLAG, 1);
    }

    #[test]
    fn amo_fetch_add_accumulates_and_returns_old() {
        let f = sim(1, 4, 4, 4);
        let f2 = f.clone();
        let olds = std::sync::Arc::new(Mutex::new(Vec::new()));
        let olds2 = olds.clone();
        run_spmd(f.clone(), move |me| {
            let old = f2.amo_fetch_add_u64(me, ProcId(0), BSEG, 0, 1);
            olds2.lock().push(old);
            f2.flag_add(me, ProcId(0), SPARE_FLAG, 1);
            if me == ProcId(0) {
                f2.flag_wait_ge(me, SPARE_FLAG, 4);
                let mut out = [0u8; 8];
                f2.get(me, me, BSEG, 0, &mut out);
                assert_eq!(u64::from_ne_bytes(out), 4);
            }
            f2.image_done(me);
        });
        let mut seen = olds.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3], "AMO must hand out distinct olds");
    }

    #[test]
    fn amo_cas_swaps_only_on_match() {
        let f = sim(1, 1, 1, 1);
        let me = ProcId(0);
        let seg = f.alloc_segment(me, 8);
        assert_eq!(f.amo_cas_u64(me, me, seg, 0, 0, 42), 0);
        assert_eq!(f.amo_cas_u64(me, me, seg, 0, 0, 99), 42); // no swap
        let mut out = [0u8; 8];
        f.get(me, me, seg, 0, &mut out);
        assert_eq!(u64::from_ne_bytes(out), 42);
        f.image_done(me);
    }

    #[test]
    fn stats_count_hierarchy_levels() {
        let f = sim(2, 2, 4, 2);
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me == ProcId(1) {
                f2.flag_add(me, ProcId(0), SPARE_FLAG, 1); // intra (node 0)
            }
            if me == ProcId(2) {
                f2.flag_add(me, ProcId(0), SPARE_FLAG, 1); // inter (node 1 -> 0)
            }
            if me == ProcId(0) {
                f2.flag_wait_ge(me, SPARE_FLAG, 2);
            }
            f2.image_done(me);
        });
        let s = f.stats().snapshot();
        assert_eq!(s.flags_intra, 1);
        assert_eq!(s.flags_inter, 1);
    }

    #[test]
    #[should_panic(expected = "image 0: segment 3 not allocated (has 1)")]
    fn a_put_to_a_segment_nobody_allocated_names_it() {
        let f = sim(1, 1, 1, 1);
        f.put(ProcId(0), ProcId(0), SegmentId(3), 0, &[1]);
    }

    #[test]
    #[should_panic(expected = "image 0: segment 1 not allocated (has 1)")]
    fn a_read_of_a_segment_nobody_allocated_names_it() {
        let f = sim(1, 1, 1, 1);
        f.get(ProcId(0), ProcId(0), SegmentId(1), 0, &mut [0; 8]);
    }

    #[test]
    #[should_panic(expected = "image 0: flag 9 not allocated (has 4)")]
    fn a_wait_on_a_flag_nobody_allocated_names_it() {
        let f = sim(1, 1, 1, 1);
        f.flag_wait_ge(ProcId(0), FlagId(9), 1);
    }

    #[test]
    #[should_panic(expected = "image 0: flag 4 not allocated (has 4)")]
    fn an_add_to_a_flag_nobody_allocated_names_it() {
        let f = sim(1, 1, 1, 1);
        f.flag_add(ProcId(0), ProcId(0), FlagId(4), 1);
    }

    #[test]
    #[should_panic(expected = "put_nb of 9 bytes at 60 exceeds seg0 (64 bytes)")]
    fn a_put_past_the_end_names_the_op_and_the_range() {
        let f = sim(1, 1, 1, 1);
        f.put_nb(ProcId(0), ProcId(0), BSEG, 60, &[0; 9]);
    }

    /// An offset whose end overflows is refused the same way, in words of
    /// the op — not by the arithmetic (a debug build's add overflow, or a
    /// release build's wrapped end passing the bounds check).
    #[test]
    fn an_offset_whose_end_overflows_names_the_op_and_the_range() {
        let far = usize::MAX - 7;
        let refusal = |op: &dyn Fn(&SimFabric)| {
            let f = sim(1, 1, 1, 1);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(&f)));
            crate::panic_message(panic.expect_err("refused").as_ref())
        };
        assert_eq!(
            refusal(&|f| {
                f.put_nb(ProcId(0), ProcId(0), BSEG, far, &[0; 8]);
            }),
            format!("put_nb of 8 bytes at {far} exceeds seg0 (64 bytes)")
        );
        assert_eq!(
            refusal(&|f| {
                f.amo_fetch_add_u64(ProcId(0), ProcId(0), BSEG, far, 1);
            }),
            format!("AMO of 8 bytes at {far} exceeds seg0 (64 bytes)")
        );
    }
}
