//! # caf-fabric
//!
//! One-sided communication fabrics for the `caf-rs` PGAS runtime — the role
//! GASNet plays under the OpenUH Coarray Fortran runtime in the paper.
//!
//! The [`Fabric`] trait exposes exactly the primitives the paper's runtime
//! and collective algorithms consume:
//!
//! * a **symmetric heap**: segments allocated collectively, addressable on
//!   every image by the same [`SegmentId`] (`put`/`get` of raw bytes);
//! * **remote atomics** (`amo_fetch_add_u64`, `amo_cas_u64`) backing the CAF
//!   `atomic_*` intrinsics;
//! * **accumulating sync flags** — monotonically increasing 64-bit counters
//!   with a remote add and a local "wait until ≥" primitive. These are the
//!   paper's `sync_flags` carry: because the counter never resets, a
//!   dissemination barrier needs only *one wait* per round and no
//!   sense-reversal or flag re-initialization between barrier episodes;
//! * a **clock** (`now_ns`) and a **compute hook** (`compute`) so algorithms
//!   can be timed identically in virtual and real time.
//!
//! Two implementations:
//!
//! * [`SimFabric`] — a conservative, deterministic discrete-event simulator.
//!   Images run as OS threads executing the *real* algorithm code; every
//!   fabric call is a scheduling point and only the image with the globally
//!   minimal virtual time may commit an effect. Costs come from a
//!   [`CostParams`] LogGP-style model with distinct intra-node and
//!   inter-node parameters and per-resource serialization (node memory bus,
//!   per-node NIC) — the quantitative substance of the paper's §IV-A
//!   analysis. This is the engine behind every reproduced figure/table.
//! * [`SocketFabric`] — real memory, real processes and real wires: one OS
//!   process per occupied node, Unix-domain sockets or TCP between
//!   processes, shared memory within. Launched by the `caf-launch` binary
//!   (or in-process via [`socket::testing`]); the backend where the
//!   paper's leader/slave split crosses genuine process boundaries. Its
//!   images of one process share memory: flags are atomics, puts are
//!   (relaxed-atomic) memcpys, waits spin-then-park, and such an operation
//!   is complete when it returns. [`ThreadFabric`] is the same type built
//!   by [`SocketFabric::new`] with one process hosting every image — no
//!   socket, no thread of its own — for functional validation under
//!   genuine concurrency and for native criterion benches.
//!
//! [`SimFabric`] has a second driver besides a thread per image:
//! [`stepper::run_stepped`] commits the ops of *hosted* images from one
//! thread, and [`stepper::Script`] — a `Fabric` that records instead of
//! executing — is how code written against this trait (the collectives)
//! becomes such a program without being written twice.

#![warn(missing_docs)]

pub mod am;
pub mod batch;
pub mod chaos;
pub mod evq;
mod sched;
pub mod seg;
pub mod sim;
pub mod socket;
pub mod spmd;
pub mod stats;
pub mod stepper;
pub mod thread;

pub use am::{Am, AmOp};
pub use batch::{AmPolicy, Batcher};
pub use caf_trace::Tracer;
pub use chaos::ChaosConfig;
pub use evq::{EvKey, ShardedEvq};
pub use seg::{Arrivals, FlagId, SegmentId};
pub use sim::{SimConfig, SimFabric};
pub use socket::obs::{
    HeartbeatSnapshot, HistSnapshot, NodeTelemetry, ObsSnapshot, PeerWireSnapshot, TelemetryPhase,
};
pub use socket::{SocketConfig, SocketFabric};
pub use spmd::{panic_message, run_images, run_spmd};
pub use stats::{Counter, FabricStats, StatsSnapshot};
pub use stepper::{run_program_spmd, run_stepped, Script, StepOp, StepProgram, SteppedReport};
pub use thread::{ThreadConfig, ThreadFabric};

use caf_topology::{CostParams, ImageMap, ProcId, SoftwareOverheads};
use std::sync::Arc;

/// Completion handle for a nonblocking put ([`Fabric::put_nb`]).
///
/// Deliberately a plain `Copy` value (no lifetime, no drop glue) so the
/// `Fabric` trait stays object-safe and tokens can be held across further
/// fabric calls for free. `arrival_ns` is the fabric's modeled/estimated
/// arrival time of the payload at the target; [`Fabric::put_wait`] blocks
/// until at least then, and [`Fabric::put_test`] polls it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PutToken {
    /// Estimated payload arrival time at the target, in the issuing
    /// fabric's clock (see [`Fabric::now_ns`]). 0 for transfers that
    /// completed synchronously at injection.
    pub arrival_ns: u64,
}

impl PutToken {
    /// A token for a transfer that completed at injection time.
    pub const DONE: PutToken = PutToken { arrival_ns: 0 };
}

/// Why a fallible runtime operation could not complete — the catchable form
/// of the failure that [`Fabric::poison`] otherwise raises as a panic.
///
/// Carried by every `try_*` entry point of the runtime so a dead peer
/// becomes an error an application can recover from (shrink the team or
/// wait for a respawn) instead of a process-terminating panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The fabric is poisoned: a peer died, a fault was injected, or a
    /// deadlock was detected. The string is the fabric's failure report.
    Poisoned(String),
    /// A recovery step (heal rendezvous, rejoin handshake) itself failed.
    HealFailed(String),
    /// This fabric has no recovery support (single-failure-domain fabrics).
    Unsupported,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Poisoned(msg) => write!(f, "fabric poisoned: {msg}"),
            RecoveryError::HealFailed(msg) => write!(f, "recovery failed: {msg}"),
            RecoveryError::Unsupported => write!(f, "fabric does not support recovery"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Environment variable enabling survivable-fleet (respawn) mode in
/// multi-process backends: `CAF_RESPAWN=1` keeps the socket fabric's
/// service threads and data listener up after a peer death so a respawned
/// incarnation can rejoin (see `SocketConfig::respawn`).
pub const ENV_RESPAWN: &str = "CAF_RESPAWN";

/// Environment variable set by the supervisor on a **respawned** fleet
/// member: the recovery generation the rejoining process establishes
/// (`CAF_GENERATION=g`, g ≥ 1). Absent or 0 means a fresh, first-life
/// member.
pub const ENV_GENERATION: &str = "CAF_GENERATION";

/// The one-sided communication substrate consumed by the runtime and the
/// collective algorithms. All methods are called *by* a particular image
/// (`me`); implementations may block the calling OS thread (waits, or the
/// simulator's turn-taking).
///
/// # Memory model
///
/// Like real PGAS fabrics, `put`/`get` are unordered with respect to each
/// other except: operations from one image to one target complete in
/// initiation order (point-to-point ordering, as provided by an RDMA
/// connection), and a flag update initiated after a put to the same target
/// becomes visible only after that put's payload. Programs must synchronize
/// through flags (or the runtime's higher-level sync constructs) before
/// reading remotely-written data; racy accesses yield unspecified (but not
/// undefined, in the Rust sense) byte values.
pub trait Fabric: Send + Sync + 'static {
    /// Number of images this fabric was built for.
    fn n_images(&self) -> usize;

    /// The image placement this fabric models/runs on.
    fn image_map(&self) -> &ImageMap;

    /// The communication cost parameters in effect (the `SimFabric` runs on
    /// them; every fabric reports them, and the collectives derive their
    /// size policy from them).
    fn cost(&self) -> &CostParams;

    /// The software-stack overheads in effect.
    fn overheads(&self) -> &SoftwareOverheads;

    /// Operation counters.
    fn stats(&self) -> &FabricStats;

    /// The tracer recording this fabric's operations. Inert by default;
    /// fabrics built with an enabled [`Tracer`] in their config return it
    /// here so the runtime and collectives can attach their own spans with
    /// the same clock.
    fn tracer(&self) -> &Tracer {
        caf_trace::off_ref()
    }

    /// This process's observability shipment (counters, wire probes, trace
    /// window), if the fabric has one. [`SocketFabric`] — a one-process
    /// [`ThreadFabric`] too — overrides this; the simulator returns `None`
    /// because everything it knows is already visible to the caller
    /// directly.
    fn process_telemetry(
        &self,
        phase: TelemetryPhase,
        cause: Option<&str>,
    ) -> Option<NodeTelemetry> {
        let _ = (phase, cause);
        None
    }

    /// Allocate a zeroed segment of `bytes` bytes **on image `me` only**;
    /// the id indexes `me`'s segment table, in allocation order. `bytes ==
    /// 0` is a **peek**: the id `me`'s next allocation gets, with nothing
    /// allocated (no table entry; on [`SocketFabric`] no shared-directory
    /// entry). Teams make ids symmetric with it — peek, agree on the
    /// largest, pad, allocate (`caf-collectives`' `alloc_symmetric`); a team
    /// without a parent agrees through the [`bootstrap`] resources.
    fn alloc_segment(&self, me: ProcId, bytes: usize) -> SegmentId;

    /// Allocate `count` fresh sync flags (initialized to 0) on image `me`
    /// only; same locality rules as [`Self::alloc_segment`]. Returns the id
    /// of the first flag; the rest follow consecutively. `count == 0` is a
    /// peek at the next id, allocating nothing.
    fn alloc_flags(&self, me: ProcId, count: usize) -> FlagId;

    /// One-sided write of `bytes` into `dst`'s segment at `offset`.
    fn put(&self, me: ProcId, dst: ProcId, seg: SegmentId, offset: usize, bytes: &[u8]);

    /// Nonblocking one-sided write: inject the transfer and return
    /// immediately with a completion handle. The payload is guaranteed
    /// visible at `dst` only after [`Self::put_wait`] on the token,
    /// [`Self::quiet`], or a subsequent flag update to the *same* target
    /// (point-to-point ordering — the pipelined collectives' discipline).
    /// On [`SocketFabric`] a small transfer's bytes may not even have left
    /// the process when this returns: they leave with the next signal to
    /// that target, at any wait, when the write-combining buffer fills, on
    /// an arriving ack, or with the heartbeat at the latest — all inside
    /// the contract above. If the next thing `me` sends that target's
    /// process is a [`Self::flag_add`] to the same `dst`, and nothing else
    /// reached the buffer in between, the two travel as **one frame** (and
    /// one ack comes back): the leaders' put-then-notify idiom costs one
    /// message on the wire.
    ///
    /// How often the runtime touches the payload: the real-memory fabrics
    /// copy it exactly once, into the target window (`seg::copy_in`) —
    /// directly for a local or shared-memory target; over the wire the
    /// sender hands `bytes` to the kernel uncopied (16 KiB and up; smaller
    /// payloads are copied into the write-combining buffer first) and the
    /// receiver moves each chunk it reads into the window. `bytes` may be
    /// reused as soon as this returns.
    ///
    /// The default forwards to the blocking [`Self::put`]; fabrics with a
    /// genuinely asynchronous data path override it.
    fn put_nb(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
    ) -> PutToken {
        self.put(me, dst, seg, offset, bytes);
        PutToken::DONE
    }

    /// Has the transfer behind `token` (issued by `me`) completed? Never
    /// blocks. Fabrics without real asynchrony always answer `true`.
    fn put_test(&self, me: ProcId, token: PutToken) -> bool {
        let _ = (me, token);
        true
    }

    /// Block until the transfer behind `token` (issued by `me`) has
    /// completed — a single-operation [`Self::quiet`].
    fn put_wait(&self, me: ProcId, token: PutToken) {
        let _ = token;
        self.quiet(me);
    }

    /// One-sided read from `src`'s segment at `offset` into `out`.
    ///
    /// How often the runtime touches the payload: once for a local or
    /// shared-memory source (`seg::copy_out`, window to `out`); twice over
    /// the wire — the serving process copies the range out of its window
    /// and writes it to the socket from there, the requester reads the
    /// socket into a recycled buffer and copies that into `out`.
    fn get(&self, me: ProcId, src: ProcId, seg: SegmentId, offset: usize, out: &mut [u8]);

    /// Remote atomic fetch-and-add on a naturally-aligned `u64` cell of
    /// `target`'s segment. Returns the previous value.
    fn amo_fetch_add_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        delta: u64,
    ) -> u64;

    /// Remote atomic compare-and-swap on a naturally-aligned `u64` cell.
    /// Returns the previous value (the swap happened iff it equals
    /// `expected`).
    fn amo_cas_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        expected: u64,
        new: u64,
    ) -> u64;

    /// Add `delta` to `target`'s flag `flag` (one-sided accumulate; never
    /// returns a value — fire-and-forget notification). Ordered after
    /// every earlier put from `me` to `target`. On [`SocketFabric`]'s wire
    /// it shares the frame of a [`Self::put_nb`] that `me` issued to the
    /// same `target` right before it, while that frame is still in the
    /// write-combining buffer; the receiver lands the payload, then bumps
    /// the flag. A sibling image's traffic to that process, any wait, or a
    /// payload of 16 KiB or more in between, and it is a frame of its own
    /// — the ordering is the same either way.
    fn flag_add(&self, me: ProcId, target: ProcId, flag: FlagId, delta: u64);

    /// A **signalled put** (OpenSHMEM's `shmem_put_signal`): write `bytes`
    /// into `dst`'s segment at `offset`, then add `delta` to `dst`'s flag
    /// `flag` — one operation, one message. Whoever sees the flag's new
    /// value sees the payload, exactly as after a `put` then a `flag_add`
    /// to the same target. Completion is a [`Self::put_nb`]'s: the payload
    /// is visible at `dst` once the flag is, [`Self::quiet`] waits for it,
    /// and `bytes` may be reused as soon as this returns. A zero-length
    /// payload is a plain [`Self::flag_add`].
    ///
    /// The default is that pair. The simulator overrides it with one
    /// modeled transfer whose flag lands with the payload, the socket
    /// fabric with one `PutFlag` frame that `quiet` covers (in memory, its
    /// own or a mapped peer's: the window write, then the flag's release
    /// add). It counts as one put and one flag.
    #[allow(clippy::too_many_arguments)]
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
        if !bytes.is_empty() {
            self.put(me, dst, seg, offset, bytes);
        }
        self.flag_add(me, dst, flag, delta);
    }

    /// Block until `me`'s own flag `flag` is ≥ `at_least`.
    fn flag_wait_ge(&self, me: ProcId, flag: FlagId, at_least: u64);

    /// Read `me`'s own flag without blocking.
    fn flag_read(&self, me: ProcId, flag: FlagId) -> u64;

    /// Deliver a batch of active-message ops from `me` to `dst`, applying
    /// them at the target **in slice order** (the active-message tier's
    /// per-destination program-order guarantee).
    ///
    /// The default replays each op through the ordinary one-sided
    /// primitives — correct on any fabric, with no aggregation win. The
    /// built-in backends override it: the simulator lands the whole batch
    /// as one scheduled delivery event, and the socket fabric applies it in
    /// one pass where the target's memory is reachable, else ships it as a
    /// single `AmBatch` wire frame covered by [`Self::quiet`].
    ///
    /// Callers normally go through [`Am`] rather than
    /// invoking this directly.
    fn am_deliver(&self, me: ProcId, dst: ProcId, ops: &[AmOp]) {
        for op in ops {
            match op {
                AmOp::Put { seg, off, data } => self.put(me, dst, *seg, *off, data),
                AmOp::FlagAdd { flag, delta } => self.flag_add(me, dst, *flag, *delta),
                AmOp::AmoAdd { seg, off, delta } => {
                    self.amo_fetch_add_u64(me, dst, *seg, *off, *delta);
                }
                AmOp::PutFlag {
                    seg,
                    off,
                    data,
                    flag,
                    delta,
                } => self.put_flag(me, dst, *seg, *off, data, *flag, *delta),
            }
        }
    }

    /// Complete all outstanding one-sided operations initiated by `me`
    /// (GASNet `gasnet_wait_syncnbi_all` / CAF `sync memory` flavor).
    fn quiet(&self, me: ProcId);

    /// Account for `ns` nanoseconds of local computation (virtual time in
    /// the simulator — scaled by the stack's compute efficiency; a no-op on
    /// real fabrics, where computation takes its own wall time).
    fn compute(&self, me: ProcId, ns: u64);

    /// Current time for `me`, in nanoseconds: virtual time on [`SimFabric`],
    /// wall time since fabric creation on [`SocketFabric`].
    fn now_ns(&self, me: ProcId) -> u64;

    /// Mark `me` as finished. Every image must call this exactly once, after
    /// its last fabric operation; the simulator needs it to retire the image
    /// from scheduling.
    fn image_done(&self, me: ProcId);

    /// Poison the fabric: every image blocked in (or later entering) a wait
    /// panics with `msg`. Launchers call this when an image thread dies so
    /// one image's failure surfaces everywhere instead of hanging the rest
    /// of the team.
    fn poison(&self, msg: &str);

    /// Non-panicking poison probe: `Err` with the failure report when the
    /// fabric is poisoned. The runtime's `try_*` surface calls this before
    /// and after each collective so dead-peer poison becomes a catchable
    /// [`RecoveryError`] instead of a panic.
    fn health(&self) -> Result<(), RecoveryError> {
        Ok(())
    }

    /// The images currently able to participate in a recovery: everyone
    /// except images the fabric knows to be dead or retired. Fabrics
    /// without death tracking report all images. Every survivor computes
    /// the same list locally — the agreement that lets
    /// `form_recovery_team()` re-form without communicating through the
    /// (possibly poisoned) collective machinery.
    fn alive_images(&self) -> Vec<ProcId> {
        (0..self.n_images()).map(ProcId).collect()
    }

    /// Recovery generation: how many heal rounds this fabric has completed
    /// (plus any generation inherited at construction — a respawned
    /// process starts at the launcher-assigned generation). Stale frames
    /// from before a peer's death carry an older generation and are
    /// rejected by the socket backend's rejoin handshake.
    fn generation(&self) -> u64 {
        0
    }

    /// Collective recovery rendezvous: every image in
    /// [`Self::alive_images`] must call this after catching a
    /// [`RecoveryError`]. Blocks until all survivors (and, for a
    /// respawn-mode socket fleet, the rejoined peer) have arrived, then —
    /// exactly once per round — resets the fabric's synchronization state:
    /// sync flags zeroed, segment tables truncated to the [`bootstrap`]
    /// resources, in-flight notifications dropped, poison cleared, and the
    /// generation bumped. After a successful heal every survivor's tables
    /// have the shape they had at startup.
    fn heal(&self, me: ProcId) -> Result<(), RecoveryError> {
        let _ = me;
        Err(RecoveryError::Unsupported)
    }
}

/// Convenience alias used throughout the runtime.
pub type ArcFabric = Arc<dyn Fabric>;

/// Pre-created resources every fabric guarantees to exist on every image
/// from construction time, solving the bootstrap problem of image-local
/// allocation: a team without a parent needs *some* agreed place to agree
/// on its ids through — one barrier whose slots carry the agreement.
pub mod bootstrap {
    use super::{Fabric, FlagId, ProcId, SegmentId};

    /// Segment 0 on every image: `n_images × SLOT_BYTES` bytes for the
    /// formation agreement (slot `i` is image `i`'s, on the leader and on
    /// image `i` alike).
    pub const SEG: SegmentId = SegmentId(0);
    /// Bytes per sender slot in the bootstrap segment.
    pub const SLOT_BYTES: usize = 64;
    /// Flag 0: central gather counter of the control barrier (on rank 0).
    pub const COUNTER: FlagId = FlagId(0);
    /// Flag 1: per-image release flag of the control barrier.
    pub const RELEASE: FlagId = FlagId(1);
    /// Number of pre-created flags per image.
    pub const NUM_FLAGS: usize = 4;
    /// Number of pre-created segments per image.
    pub const NUM_SEGS: usize = 1;

    /// A simple central-counter barrier over **all** images of the fabric,
    /// built exclusively on bootstrap resources. `epoch` is a per-image
    /// counter that must start at 0 and be passed to every call (the flags
    /// accumulate across episodes — the paper's `sync_flags` carry).
    ///
    /// This is control-plane machinery (runtime startup, team formation),
    /// not a benchmarked collective; the real barrier algorithms live in
    /// `caf-collectives`.
    pub fn control_barrier<F: Fabric + ?Sized>(fabric: &F, me: ProcId, epoch: &mut u64) {
        barrier_over(fabric, me, fabric.n_images(), ProcId, epoch, None);
    }

    /// [`control_barrier`] restricted to an explicit member list — the
    /// control-plane barrier of **recovery team formation**, where the
    /// full-fabric barrier is unusable because some images are dead (and
    /// rank 0, the usual leader, may be among them). The leader is
    /// `members[0]`; every member passes the same list and its own
    /// post-heal epoch counter (restart at 0 after [`Fabric::heal`] zeroes
    /// the flags).
    pub fn control_barrier_among<F: Fabric + ?Sized>(
        fabric: &F,
        me: ProcId,
        members: &[ProcId],
        epoch: &mut u64,
    ) {
        barrier_over(fabric, me, members.len(), |i| members[i], epoch, None);
    }

    /// [`control_barrier_among`] that also agrees on two words: each member
    /// brings `mine` and leaves with the element-wise maximum over
    /// `members`. A member's arrival carries its words into its [`SEG`]
    /// slot on the leader; the leader reads its slots at once, and each
    /// member's release carries the maximum into that member's own slot.
    pub fn max_among<F: Fabric + ?Sized>(
        fabric: &F,
        me: ProcId,
        members: &[ProcId],
        epoch: &mut u64,
        mine: [u64; 2],
    ) -> [u64; 2] {
        let (mut w, n) = (mine, members.len());
        barrier_over(fabric, me, n, |i| members[i], epoch, Some(&mut w));
        w
    }

    /// The one body of all three: `n` members, `member(0)` leads, and
    /// `words`, when given, are agreed on as [`max_among`] describes — they
    /// ride the barrier's own notifications as signalled puts (with no
    /// words, an empty payload: a plain flag add).
    fn barrier_over<F: Fabric + ?Sized>(
        fabric: &F,
        me: ProcId,
        n: usize,
        member: impl Fn(usize) -> ProcId,
        epoch: &mut u64,
        mut words: Option<&mut [u64; 2]>,
    ) {
        *epoch += 1;
        if n <= 1 {
            return;
        }
        let slot = |p: ProcId| p.index() * SLOT_BYTES;
        let bytes = |w: &Option<&mut [u64; 2]>| {
            w.as_ref()
                .map_or(vec![], |w| w.map(u64::to_ne_bytes).concat())
        };
        let word = |b: &[u8], i: usize| u64::from_ne_bytes(b[i..i + 8].try_into().expect("8"));
        let leader = member(0);
        if me == leader {
            fabric.flag_wait_ge(me, COUNTER, (n as u64 - 1) * *epoch);
            if let Some(w) = words.as_deref_mut() {
                let mut all = vec![0u8; fabric.n_images() * SLOT_BYTES];
                fabric.get(me, me, SEG, 0, &mut all);
                for at in (1..n).map(|j| slot(member(j))) {
                    *w = [w[0].max(word(&all, at)), w[1].max(word(&all, at + 8))];
                }
            }
            let most = bytes(&words);
            for to in (1..n).map(&member) {
                fabric.put_flag(me, to, SEG, slot(to), &most, RELEASE, 1);
            }
        } else {
            fabric.put_flag(me, leader, SEG, slot(me), &bytes(&words), COUNTER, 1);
            fabric.flag_wait_ge(me, RELEASE, *epoch);
            if let Some(w) = words {
                let mut answer = [0u8; 16];
                fabric.get(me, me, SEG, slot(me), &mut answer);
                *w = [word(&answer, 0), word(&answer, 8)];
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod trait_tests {
    use super::*;
    use caf_topology::{presets, Placement};

    #[test]
    fn fabric_trait_is_object_safe() {
        // Compile-time check: we can name the trait object.
        fn _takes(_: &ArcFabric) {}
    }

    /// The zero-size contract on `f` for image `me`: a peek answers the id
    /// the next real allocation gets, as often as it is asked, and a real
    /// allocation moves the answer on by its size. Returns the peeked ids
    /// (both allocated by the time this returns).
    pub(crate) fn zero_size_is_a_peek(f: &dyn Fabric, me: ProcId) -> (SegmentId, FlagId) {
        let (seg, flag) = (f.alloc_segment(me, 0), f.alloc_flags(me, 0));
        assert_eq!((f.alloc_segment(me, 0), f.alloc_flags(me, 0)), (seg, flag));
        assert_eq!(
            f.alloc_segment(me, 24),
            seg,
            "the peek named the next segment"
        );
        assert_eq!(f.alloc_flags(me, 3), flag, "the peek named the next flag");
        let next = (SegmentId(seg.0 + 1), flag.nth(3));
        assert_eq!((f.alloc_segment(me, 0), f.alloc_flags(me, 0)), next);
        (seg, flag)
    }

    /// A peek adds no table entry: an op on the peeked id is refused until
    /// the real allocation lands.
    #[test]
    fn zero_size_allocation_is_a_peek_on_sim_and_threads() {
        let map = ImageMap::new(presets::mini(1, 1), 1, &Placement::Packed);
        let sim = || -> ArcFabric { SimFabric::new(map.clone(), SimConfig::default()) };
        let threads = || -> ArcFabric { ThreadFabric::new(map.clone(), ThreadConfig::default()) };
        let me = ProcId(0);
        for fresh in [&sim as &dyn Fn() -> ArcFabric, &threads] {
            for op in 0..2 {
                let f = fresh();
                let (seg, flag) = (f.alloc_segment(me, 0), f.alloc_flags(me, 0));
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
                    0 => f.put(me, me, seg, 0, &[7; 8]),
                    _ => _ = f.flag_read(me, flag),
                }));
                assert!(refused.is_err(), "op {op} on a peeked id must be refused");
            }
            let f = fresh();
            let (seg, flag) = zero_size_is_a_peek(&*f, me);
            f.put(me, me, seg, 16, &[7; 8]);
            assert_eq!(f.flag_read(me, flag.nth(2)), 0);
        }
    }
}
