//! `TeamComm` — the communication structure behind the paper's `team_type`.
//!
//! One `TeamComm` exists per image per team. It owns:
//!
//! * the team's **image-index → process mapping** (`members`), exactly the
//!   mapping array the paper adds to OpenUH's `team_type`;
//! * the **hierarchy view** (intranode sets + leaders) computed once at
//!   formation, which every two-level collective consults, and the
//!   **barrier levels** its resolved barrier algorithm walks (see
//!   `shape.rs`);
//! * **one resource record**: its flag block and exchange, scratch and
//!   gather segments, each under one id, the same on every member;
//! * **one counted wait** ([`Arrivals`]): all flags are accumulating
//!   `sync_flags` counters (never reset), so a wait names the arrivals its
//!   episode brings and the record adds them to what that flag has
//!   consumed — the paper's one-wait carry, counted in one place.
//!
//! # Symmetric allocation and formation
//!
//! Fabric allocation is image-local; one placement rule (`place`) makes
//! ids symmetric: members *peek* at their next ids (a zero-size
//! allocation), *agree* on the largest in an exchange the operation runs
//! anyway, *pad* up to it, and *allocate* there. The exchange's closing
//! fence runs after the allocation, so nobody addresses a member's new
//! resource before it exists; sibling teams may have allocated anything.
//! Subteams ([`TeamComm::create_sub`], the runtime's `form_team`) agree
//! through the **parent** team. A team without a parent
//! ([`TeamComm::create_among`]) forms in one barrier on the fabric's
//! [`caf_fabric::bootstrap`] resources. A [`Provisioned`] team exchanges
//! nothing: a harness that reaches every image's tables allocates for all.

use crate::bcast::Pending;
use crate::config::{BarrierAlgo, BcastAlgo, CollectiveConfig, GatherAlgo, ReduceAlgo, SizePolicy};
use crate::shape::{barrier_shape, Among, BarrierLevel};
use crate::value::{bytes_to_slice, slice_to_bytes, CoNumeric, CoOp, CoValue};
use caf_fabric::{bootstrap, ArcFabric, Arrivals, Fabric, FlagId, PutToken, SegmentId};
use caf_topology::tree::{ceil_log2, lowbit_children, lowbit_parent, lowbit_subtree};
use caf_topology::{HierarchyView, ProcId};
use caf_trace::{Event, EventKind, Level};
use std::sync::Arc;

/// Bytes per member slot in a team's exchange segment (4 × u64).
pub(crate) const EXCH_SLOT: usize = 32;

/// Flag indices within a team's flag block.
pub(crate) mod flag {
    /// Barrier: central/TDLB gather counter (lives on the gather target).
    pub const COUNTER: usize = 0;
    /// Barrier: release notification (per member).
    pub const RELEASE: usize = 1;
    /// Multi-level barrier: socket-level gather counter.
    pub const S_COUNTER: usize = 2;
    /// Multi-level barrier: socket-level release.
    pub const S_RELEASE: usize = 3;
    /// Reduction: intra-node gather counter at the leader.
    pub const R_COUNTER: usize = 4;
    /// Reduction: intra-node result release.
    pub const R_RELEASE: usize = 5;
    /// Reduction: non-power-of-two fold-in notification.
    pub const R_PRE: usize = 6;
    /// Reduction: non-power-of-two fold-out notification.
    pub const R_POST: usize = 7;
    /// Broadcast: payload-arrived notification, one counter per scratch
    /// parity (so two broadcasts can be in flight; see `bcast.rs`).
    pub const B_ARRIVE: [usize; 2] = [8, 21];
    /// Broadcast: consumption ack (flow control), per parity.
    pub const B_ACK: [usize; 2] = [9, 22];
    /// Team control barrier: gather counter (control plane only).
    pub const EXCH_COUNTER: usize = 10;
    /// Team control barrier: release.
    pub const EXCH_RELEASE: usize = 11;
    /// Broadcast: episode-completion release (the third wave; see
    /// `bcast.rs` — required because roots rotate call-to-call over an
    /// arbitrary tree; the ring needs none), per parity.
    pub const B_DONE: [usize; 2] = [12, 23];
    /// Control-plane allgather: tree-gather arrival counter.
    pub const EXCH_GATHER: usize = 13;
    /// Control-plane allgather: tree-broadcast arrival counter.
    pub const EXCH_BCAST: usize = 14;
    /// Gather: contribution-arrived counter.
    pub const GA_ARRIVE: usize = 15;
    /// Gather: completion release.
    pub const GA_DONE: usize = 16;
    /// Scatter: slice-arrived counter.
    pub const SC_ARRIVE: usize = 17;
    /// Scatter: consumption ack.
    pub const SC_ACK: usize = 18;
    /// Scatter: completion release.
    pub const SC_DONE: usize = 19;
    /// All-to-all: slice-arrived counter.
    pub const A2A_ARRIVE: usize = 20;
    /// Ring broadcast: payload-arrived notification, bumped only by my ring
    /// predecessor (one counter for both slots; see `bcast.rs`).
    pub const RING_ARRIVE: usize = 24;
    /// Ring broadcast: credits, one per episode, from my ring successor.
    pub const RING_CREDIT: usize = 25;
    /// First dissemination-round flag; round `k` is `DISSEM + k`.
    pub const DISSEM: usize = 26;
}

/// Per-team flag-block layout: 26 fixed flags, then `d` dissemination
/// flags, then `d` reduction-round flags, then `lm` per-set-position
/// chunk-stream flags (pipelined reduction: the leader must count each
/// slave's chunks separately — one shared counter cannot tell "slave A
/// sent two chunks" from "slaves A and B sent one each").
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlagLayout {
    /// ⌈log₂ team size⌉, ≥ 1 slot even for singleton teams.
    pub d: usize,
    /// Largest intranode-set size (chunk-stream flag count).
    pub lm: usize,
}

impl FlagLayout {
    /// The layout of a team decomposed as `hier` (the chunk-stream flags
    /// are per set position, so the hierarchy comes first).
    pub(crate) fn new(hier: &HierarchyView) -> Self {
        let local_max = hier.sets().iter().map(|s| s.len()).max().unwrap_or(1);
        Self {
            d: ceil_log2(hier.n_ranks()).max(1),
            lm: local_max.max(1),
        }
    }

    pub(crate) fn total(&self) -> usize {
        flag::DISSEM + 2 * self.d + self.lm
    }

    pub(crate) fn dissem(&self, k: usize) -> usize {
        debug_assert!(k < self.d);
        flag::DISSEM + k
    }

    pub(crate) fn r_arrive(&self, k: usize) -> usize {
        debug_assert!(k < self.d);
        flag::DISSEM + self.d + k
    }

    /// Chunk-stream flag for intranode set position `pos` (pipelined
    /// reduction gather).
    pub(crate) fn chunk(&self, pos: usize) -> usize {
        debug_assert!(pos < self.lm);
        flag::DISSEM + 2 * self.d + pos
    }

    /// Number of scratch slots in the team layout.
    pub(crate) fn scratch_slots(&self) -> usize {
        2 * self.d + 2 * self.lm + 10
    }
}

/// A team's resource ids — one record, the same on every member. Scratch
/// and gather segments are valid once their slot size is nonzero.
#[derive(Clone, Copy)]
struct Rsrc {
    flags: FlagId,
    exch: SegmentId,
    scratch: SegmentId,
    gather: SegmentId,
}

impl Rsrc {
    /// A team as formed: scratch and gather come with the first collective
    /// that needs them.
    fn formed(flags: FlagId, exch: SegmentId) -> Self {
        let none = SegmentId(usize::MAX);
        Self {
            flags,
            exch,
            scratch: none,
            gather: none,
        }
    }
}

/// A team's two growable segments.
#[derive(Clone, Copy)]
pub(crate) enum Region {
    Scratch,
    Gather,
}

/// The ids image `me`'s next flag block and next segment would get.
fn peek(fabric: &dyn Fabric, me: ProcId) -> [u64; 2] {
    let (flags, seg) = (fabric.alloc_flags(me, 0), fabric.alloc_segment(me, 0));
    [flags.0 as u64, seg.0 as u64]
}

/// The one placement rule (module docs): given every member's [`peek`],
/// pad `me`'s tables up to the largest — one flag block, and 1-byte
/// placeholder segments — and allocate `flags` flags and a `bytes`-byte
/// segment there. A kind asked for with 0 is neither padded nor allocated.
fn place(
    fabric: &dyn Fabric,
    me: ProcId,
    peeks: impl IntoIterator<Item = [u64; 2]>,
    flags: usize,
    bytes: usize,
) -> (FlagId, SegmentId) {
    let most = |a: [u64; 2], b: [u64; 2]| [a[0].max(b[0]), a[1].max(b[1])];
    let [f, s] = peeks.into_iter().fold([0, 0], most).map(|w| w as usize);
    let (mut flag, mut seg) = (FlagId(f), SegmentId(s));
    if flags > 0 {
        fabric.alloc_flags(me, f - fabric.alloc_flags(me, 0).0);
        flag = fabric.alloc_flags(me, flags);
    }
    if bytes > 0 {
        for _ in fabric.alloc_segment(me, 0).0..s {
            fabric.alloc_segment(me, 1);
        }
        seg = fabric.alloc_segment(me, bytes);
    }
    assert_eq!(
        (flag, seg),
        (FlagId(f), SegmentId(s)),
        "image {}",
        me.index()
    );
    (flag, seg)
}

/// A team formed **without communication**, for a harness that can reach
/// every member's fabric tables itself (the simulator's hosted fleets, and
/// the threaded runs they are checked against). [`Provisioned::new`]
/// allocates each member's flag block and scratch, in one order, so every
/// member holds the same ids; [`Provisioned::comm`] then hands each image a
/// [`TeamComm`] that shares the member list and the hierarchy, and holds
/// the team's one resource record.
///
/// What such a team gives up is everything that needs an exchange: it
/// has no exchange segment, so it cannot be split, cannot gather/scatter,
/// and cannot grow its scratch — a payload larger than it was provisioned
/// for is refused by name, on every fabric.
pub struct Provisioned {
    members: Arc<Vec<ProcId>>,
    hier: Arc<HierarchyView>,
    layout: FlagLayout,
    rsrc: Rsrc,
    cfg: CollectiveConfig,
    scratch_slot_bytes: usize,
}

impl Provisioned {
    /// Provision a team of `members` (rank `r` is `members[r]`) on `fabric`,
    /// with scratch for collective payloads of up to `scratch_slot_bytes`
    /// (0: barriers only). Call it once, from one thread, before any member
    /// runs; every member must have made the same allocations so far.
    pub fn new(
        fabric: &dyn Fabric,
        members: Vec<ProcId>,
        cfg: CollectiveConfig,
        scratch_slot_bytes: usize,
    ) -> Self {
        let (hier, layout) = TeamComm::decompose(fabric, &members);
        let scratch_bytes = layout.scratch_slots() * scratch_slot_bytes;
        let first = peek(fabric, members[0]);
        let mut ids = (FlagId(0), SegmentId(0));
        for &p in &members {
            assert_eq!(
                peek(fabric, p),
                first,
                "image {}: provisioning needs one allocation history on every member",
                p.index()
            );
            ids = place(fabric, p, [first], layout.total(), scratch_bytes);
        }
        let (flags, scratch) = ids;
        Self {
            rsrc: Rsrc {
                scratch,
                ..Rsrc::formed(flags, SegmentId(usize::MAX))
            },
            members: Arc::new(members),
            hier,
            layout,
            cfg,
            scratch_slot_bytes,
        }
    }

    /// Number of images in the team.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Team rank `rank`'s context, communicating through `fabric` — the
    /// fabric the team was provisioned on, or a recorder in front of it.
    pub fn comm(&self, fabric: ArcFabric, rank: usize) -> TeamComm {
        let mut comm = TeamComm::assemble(
            fabric,
            self.members[rank],
            rank,
            self.members.clone(),
            self.hier.clone(),
            self.cfg,
            self.layout,
            self.rsrc,
        );
        comm.provisioned = true;
        comm.scratch_slot_bytes = self.scratch_slot_bytes;
        comm
    }
}

/// The per-image communication context of one team. See the module docs.
pub struct TeamComm {
    pub(crate) fabric: ArcFabric,
    pub(crate) me: ProcId,
    pub(crate) rank: usize,
    pub(crate) members: Arc<Vec<ProcId>>,
    pub(crate) hier: Arc<HierarchyView>,
    /// Configuration as given (pre-resolution), inherited by subteams.
    raw_cfg: CollectiveConfig,
    /// Algorithms resolved against this team's hierarchy.
    pub(crate) barrier_algo: BarrierAlgo,
    /// The levels my rank climbs in `barrier_algo` and who disseminates at
    /// the top — fixed with the algorithm, so built once.
    pub(crate) barrier_levels: Vec<BarrierLevel>,
    pub(crate) barrier_roots: Option<Among>,
    /// The one level of the control barrier.
    control: BarrierLevel,
    pub(crate) reduce_algo: ReduceAlgo,
    pub(crate) bcast_algo: BcastAlgo,
    pub(crate) gather_algo: GatherAlgo,
    /// Size thresholds for the (hierarchy × message size) `Auto` policy,
    /// derived from the fabric's cost model at formation.
    pub(crate) policy: SizePolicy,
    pub(crate) layout: FlagLayout,
    /// The team's resource ids, which are every member's.
    rsrc: Rsrc,
    /// Formed without an exchange ([`Provisioned`]): there is no
    /// exchange segment, so nothing can be grown or split off later.
    provisioned: bool,
    /// Episodes begun so far of the barrier, the tree broadcast, the ring
    /// broadcast and the reduction — the current one's number: a
    /// broadcast's and a reduction's scratch parity, and the episode of
    /// their trace spans.
    pub(crate) barriers: u64,
    pub(crate) bcasts: u64,
    pub(crate) rings: u64,
    pub(crate) reductions: u64,
    /// Arrivals consumed on each flag of the team's block.
    arrived: Arrivals,
    /// Broadcasts begun and not yet finished, by scratch parity.
    pub(crate) bcast_pending: [Option<Pending>; 2],
    /// The fabric's recovery generation at formation: a heal invalidates
    /// the team, unfinished broadcasts included.
    generation: u64,
    /// Current scratch slot size in bytes (0 = scratch not yet allocated).
    pub(crate) scratch_slot_bytes: usize,
    /// Current gather/scatter slot size in bytes (0 = not yet allocated).
    pub(crate) gather_slot_bytes: usize,
    /// Workhorse byte buffers (reused across collective calls).
    pub(crate) buf: Vec<u8>,
    pub(crate) buf2: Vec<u8>,
    /// Staging buffer for raw-byte assembly (control-plane allgather,
    /// gather/scatter forwarding) — grow-only capacity, so steady-state
    /// collective calls allocate nothing.
    pub(crate) stage: Vec<u8>,
}

impl TeamComm {
    // ------------------------------------------------------------------
    // Formation
    // ------------------------------------------------------------------

    /// Create the initial team spanning every image of `fabric`:
    /// [`TeamComm::create_among`] over all of them.
    ///
    /// Collective: every image must call it, once, before any other team
    /// operation. `boot_epoch` is this image's bootstrap-barrier counter
    /// (start at 0 and reuse the same counter for any further
    /// `create_initial` on the same fabric).
    pub fn create_initial(
        fabric: ArcFabric,
        me: ProcId,
        cfg: CollectiveConfig,
        boot_epoch: &mut u64,
    ) -> Self {
        let all = (0..fabric.n_images()).map(ProcId).collect();
        Self::create_among(fabric, me, all, cfg, boot_epoch)
    }

    /// Create a team spanning an explicit member list **without** a parent
    /// team — the initial team, and the formation path of
    /// `form_recovery_team()`. Every member passes the same `members` list
    /// (each survivor computes it locally from `Fabric::alive_images`, so
    /// no agreement protocol is needed) and a `boot_epoch` counter matching
    /// the flag state (fresh after a heal).
    ///
    /// Formation is one barrier over `members` (`members[0]` leads, so a
    /// dead rank 0 or node cannot block it). Each member places its flag
    /// block and exchange segment *before* the barrier, since nothing after
    /// it could fence a late allocation: a team without a parent needs one
    /// allocation history on every member, as at startup and after a heal,
    /// and the barrier checks it ([`bootstrap::max_among`]). Ranks are
    /// dense: member `i` of the list becomes team rank `i`.
    pub fn create_among(
        fabric: ArcFabric,
        me: ProcId,
        members: Vec<ProcId>,
        cfg: CollectiveConfig,
        boot_epoch: &mut u64,
    ) -> Self {
        let rank = members
            .iter()
            .position(|&p| p == me)
            .expect("create_among: caller must be in the member list");
        let (hier, layout) = Self::decompose(&*fabric, &members);
        let mine = peek(&*fabric, me);
        let exch_bytes = members.len() * EXCH_SLOT;
        let (flags, exch) = place(&*fabric, me, [mine], layout.total(), exch_bytes);
        let most = bootstrap::max_among(&*fabric, me, &members, boot_epoch, mine);
        assert_eq!(
            mine,
            most,
            "image {}: a team without a parent needs one allocation history on every \
             member, and this one's next flag/segment ids fall short of another's",
            me.index()
        );
        let rsrc = Rsrc::formed(flags, exch);
        Self::assemble(fabric, me, rank, Arc::new(members), hier, cfg, layout, rsrc)
    }

    /// Decompose `members` along the machine and size the team's flag
    /// block (it includes per-set-position chunk-stream flags, so the
    /// hierarchy comes first).
    fn decompose(fabric: &dyn Fabric, members: &[ProcId]) -> (Arc<HierarchyView>, FlagLayout) {
        let hier = Arc::new(HierarchyView::build(fabric.image_map(), members));
        let layout = FlagLayout::new(&hier);
        (hier, layout)
    }

    /// Split the parent team into subteams by `team_number` — the runtime's
    /// `form team` statement. Collective over the **parent** team: every
    /// parent member calls it, supplying its chosen number and optional
    /// 1-based `new_index` within its new team.
    ///
    /// Returns this image's new team. Ordering within a subteam follows
    /// `new_index` when given (all members of a subteam must then supply
    /// distinct indices forming 1..=m), else parent rank order.
    pub fn create_sub(
        &mut self,
        team_number: i64,
        new_index: Option<usize>,
        cfg: Option<CollectiveConfig>,
    ) -> TeamComm {
        let cfg = cfg.unwrap_or(self.raw_cfg);
        // Round 1: gather everyone's (number, key, has_index).
        let key = new_index.unwrap_or(0) as u64;
        let g1 = self.allgather4([team_number as u64, key, new_index.is_some() as u64, 0]);
        self.control_barrier();

        // My subteam: parent ranks with my number, ordered by key or rank.
        let mut group: Vec<(usize, u64, bool)> = g1
            .iter()
            .enumerate()
            .filter(|(_, v)| v[0] as i64 == team_number)
            .map(|(r, v)| (r, v[1], v[2] != 0))
            .collect();
        let any_index = group.iter().any(|(_, _, h)| *h);
        if any_index {
            assert!(
                group.iter().all(|(_, _, h)| *h),
                "form_team: some but not all members of team {team_number} gave a new_index"
            );
            group.sort_by_key(|&(r, k, _)| (k, r));
            let m = group.len();
            for (i, &(_, k, _)) in group.iter().enumerate() {
                assert_eq!(
                    k as usize,
                    i + 1,
                    "form_team: new_index values for team {team_number} must be a permutation of 1..={m}"
                );
            }
        } else {
            group.sort_by_key(|&(r, _, _)| r);
        }
        let parent_ranks: Vec<usize> = group.iter().map(|&(r, _, _)| r).collect();
        let members: Arc<Vec<ProcId>> =
            Arc::new(parent_ranks.iter().map(|&r| self.members[r]).collect());
        let my_new_rank = parent_ranks
            .iter()
            .position(|&r| r == self.rank)
            .expect("caller is in its own subteam");

        // Round 2: exchange peeks parent-wide, place my new team's
        // resources at its members' largest, and fence (the new team's
        // members address each other only after every one has allocated).
        let (hier, layout) = Self::decompose(&*self.fabric, &members);
        let [f, s] = peek(&*self.fabric, self.me);
        let g2 = self.allgather4([f, s, 0, 0]);
        let peeks = parent_ranks.iter().map(|&r| [g2[r][0], g2[r][1]]);
        let exch_bytes = members.len() * EXCH_SLOT;
        let (flags, exch) = place(&*self.fabric, self.me, peeks, layout.total(), exch_bytes);
        self.control_barrier();

        Self::assemble(
            self.fabric.clone(),
            self.me,
            my_new_rank,
            members,
            hier,
            cfg,
            layout,
            Rsrc::formed(flags, exch),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        fabric: ArcFabric,
        me: ProcId,
        rank: usize,
        members: Arc<Vec<ProcId>>,
        hier: Arc<HierarchyView>,
        cfg: CollectiveConfig,
        layout: FlagLayout,
        rsrc: Rsrc,
    ) -> Self {
        let policy = SizePolicy::from_cost(fabric.cost());
        let generation = fabric.generation();
        let barrier_algo = cfg.barrier.resolve(&hier);
        let (barrier_levels, barrier_roots) = barrier_shape(barrier_algo, &hier, rank);
        Self {
            barrier_algo,
            barrier_levels,
            barrier_roots,
            control: BarrierLevel::control(members.len(), rank),
            reduce_algo: cfg.reduce.resolve(&hier),
            bcast_algo: cfg.bcast.resolve(&hier),
            gather_algo: cfg.gather.resolve(&hier),
            raw_cfg: cfg,
            policy,
            fabric,
            me,
            rank,
            members,
            hier,
            layout,
            arrived: Arrivals::new(rsrc.flags, layout.total()),
            rsrc,
            provisioned: false,
            barriers: 0,
            bcasts: 0,
            rings: 0,
            reductions: 0,
            bcast_pending: [None, None],
            generation,
            scratch_slot_bytes: 0,
            gather_slot_bytes: 0,
            buf: Vec::new(),
            buf2: Vec::new(),
            stage: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// This image's 0-based rank within the team.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of images in the team.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Process of team rank `r` — the paper's image-index mapping array.
    pub fn proc_of(&self, r: usize) -> ProcId {
        self.members[r]
    }

    /// The member list (rank → process).
    pub fn members(&self) -> &Arc<Vec<ProcId>> {
        &self.members
    }

    /// The team's two-level decomposition.
    pub fn hierarchy(&self) -> &HierarchyView {
        &self.hier
    }

    /// The fabric this team communicates through.
    pub fn fabric(&self) -> &ArcFabric {
        &self.fabric
    }

    /// Whether node-mates' messages queue on one NIC: the fabric routes
    /// them through it (`SoftwareOverheads::intra_via_nic`, a NIC-loopback
    /// stack) and some node hosts more than one image. Then cutting a
    /// transfer into more messages to overlap them — the ring's chunks,
    /// HPL's narrow first U12 block — only adds per-message cost to that
    /// queue. Where node-mates share memory, or no node has two images,
    /// an image's messages have a link to themselves.
    pub fn shares_a_nic(&self) -> bool {
        self.fabric.overheads().intra_via_nic && self.fabric.image_map().max_images_per_node() > 1
    }

    /// Resolved barrier algorithm for this team.
    pub fn barrier_algorithm(&self) -> BarrierAlgo {
        self.barrier_algo
    }

    /// Resolved reduction algorithm for this team.
    pub fn reduce_algorithm(&self) -> ReduceAlgo {
        self.reduce_algo
    }

    /// Resolved broadcast algorithm for this team.
    pub fn bcast_algorithm(&self) -> BcastAlgo {
        self.bcast_algo
    }

    /// Resolved gather/scatter algorithm for this team.
    pub fn gather_algorithm(&self) -> GatherAlgo {
        self.gather_algo
    }

    /// The size thresholds governing `Auto` algorithm selection.
    pub fn size_policy(&self) -> SizePolicy {
        self.policy
    }

    /// Override the size thresholds (tests; normal users keep the
    /// cost-model-derived defaults). Collective in effect: all
    /// members must install the same policy before the next collective.
    pub fn set_size_policy(&mut self, policy: SizePolicy) {
        self.policy = policy;
    }

    /// Broadcast algorithm for a payload of `bytes` — the per-call half of
    /// the `Auto` policy (the hierarchy half was resolved at formation).
    pub(crate) fn bcast_algo_for(&self, bytes: usize) -> BcastAlgo {
        self.raw_cfg
            .bcast
            .resolve_sized(&self.hier, bytes, &self.policy)
    }

    /// Reduction algorithm for a payload of `bytes`.
    pub(crate) fn reduce_algo_for(&self, bytes: usize) -> ReduceAlgo {
        self.raw_cfg
            .reduce
            .resolve_sized(&self.hier, bytes, &self.policy)
    }

    /// Elements per pipeline chunk for an element size of `elem` bytes.
    pub(crate) fn chunk_elems(&self, elem: usize) -> usize {
        (self.policy.chunk_bytes / elem.max(1)).max(1)
    }

    // ------------------------------------------------------------------
    // Collectives (public API)
    // ------------------------------------------------------------------

    /// Team barrier (`sync all` / `sync team`), using the algorithm
    /// resolved at formation. Finishes every unfinished broadcast first, so
    /// `sync team` and `end team` leave nothing in flight.
    pub fn barrier(&mut self) {
        crate::bcast::finish(self);
        crate::barrier::barrier(self);
    }

    /// Element-wise allreduce of `buf` with a user operation — CAF
    /// `co_reduce`. `f` must be commutative and associative; the
    /// hierarchical algorithms reorder combinations freely.
    pub fn co_reduce_with<T: CoValue>(&mut self, buf: &mut [T], f: impl Fn(T, T) -> T) {
        crate::reduce::allreduce(self, buf, &f);
    }

    /// Element-wise intrinsic reduction (CAF `co_sum`/`co_min`/`co_max`).
    pub fn co_reduce<T: CoNumeric>(&mut self, buf: &mut [T], op: CoOp) {
        self.co_reduce_with(buf, |a, b| op.apply(a, b));
    }

    /// CAF `co_sum`: element-wise sum across the team, result everywhere.
    pub fn co_sum<T: CoNumeric>(&mut self, buf: &mut [T]) {
        self.co_reduce(buf, CoOp::Sum);
    }

    /// CAF `co_min`.
    pub fn co_min<T: CoNumeric>(&mut self, buf: &mut [T]) {
        self.co_reduce(buf, CoOp::Min);
    }

    /// CAF `co_max`.
    pub fn co_max<T: CoNumeric>(&mut self, buf: &mut [T]) {
        self.co_reduce(buf, CoOp::Max);
    }

    /// CAF `co_broadcast`: `buf` on team rank `root` is replicated into
    /// every member's `buf`. [`Self::co_broadcast_begin`] and
    /// [`Self::co_broadcast_finish`] back to back.
    pub fn co_broadcast<T: CoValue>(&mut self, buf: &mut [T], root: usize) {
        crate::bcast::begin(self, buf, root);
        crate::bcast::finish(self);
    }

    /// Start a broadcast of `buf` from team rank `root`. On return every
    /// member's `buf` holds the root's data; what is left — the root
    /// learning that everyone has it, and telling them so — runs in
    /// [`Self::co_broadcast_finish`], the next barrier, or the `begin` two
    /// broadcasts later, whichever comes first. A team holds at most two
    /// unfinished broadcasts: this call finishes the one before the
    /// previous one.
    pub fn co_broadcast_begin<T: CoValue>(&mut self, buf: &mut [T], root: usize) {
        crate::bcast::begin(self, buf, root);
    }

    /// Finish every broadcast this image has begun on the team, oldest
    /// first: as a broadcast's root it returns once every member holds
    /// the data, as a member once the root's release has reached it.
    pub fn co_broadcast_finish(&mut self) {
        crate::bcast::finish(self);
    }

    /// Broadcast `buf` from team rank `root` along the team's ring, in rank
    /// order: each member takes the payload from its predecessor and passes
    /// it to its successor, so the root's successor holds it first and its
    /// predecessor last. On a ring of three or more the payload travels in
    /// pieces of [`SizePolicy::chunk_bytes`], each forwarded as soon as it
    /// has arrived — unless node-mates' messages share a NIC
    /// ([`Self::shares_a_nic`]), where it travels whole. There is nothing
    /// to finish: each member returns a credit to its predecessor, and a
    /// sender waits for its successor's
    /// credits only when it is about to reuse a slot two episodes old
    /// (`bcast.rs`, "credits on a fixed ring"). A root returns once its
    /// payload is sent, a member once it holds the data and has passed it
    /// on. One hop per member suits roots that advance in rank order, as
    /// HPL's panel owners do. Ring and tree broadcasts on one team
    /// interleave freely: each has its own slots and flags.
    pub fn co_broadcast_ring<T: CoValue>(&mut self, buf: &mut [T], root: usize) {
        crate::bcast::ring(self, buf, root);
    }

    /// Gather `mine` from every member to team rank `root`; the root
    /// receives the concatenation in team-rank order (`None` elsewhere).
    /// Extension collective (see `gather.rs`).
    pub fn co_gather<T: CoValue>(&mut self, mine: &[T], root: usize) -> Option<Vec<T>> {
        crate::gather::gather(self, mine, root)
    }

    /// Scatter from team rank `root`: the root supplies `n·out.len()`
    /// elements, member `r` receives slice `r` into `out`.
    /// Extension collective (see `gather.rs`).
    pub fn co_scatter<T: CoValue>(&mut self, all: Option<&[T]>, out: &mut [T], root: usize) {
        crate::gather::scatter(self, all, out, root);
    }

    /// All-to-all personalized exchange: `send` holds `n` slices of `len`
    /// elements (slice `j` for team rank `j`); the result holds slice `r`'s
    /// payload from every rank `r`, in rank order — the distributed
    /// transpose. Extension collective (see `gather.rs`).
    ///
    /// Uses a ring schedule (`(rank + k) mod n` at step `k`) so every
    /// image sends and receives exactly one slice per step, and finishes
    /// with a team barrier that fences the exchange region for the next
    /// era (all-to-all has no root to run a release wave through).
    pub fn co_alltoall<T: CoValue>(&mut self, send: &[T], len: usize) -> Vec<T> {
        crate::gather::alltoall(self, send, len)
    }

    // ------------------------------------------------------------------
    // Control plane (used by formation, scratch growth, and the runtime)
    // ------------------------------------------------------------------

    /// Collective allocation over the team: `flags` sync flags and a
    /// `bytes`-byte segment (0: none of that kind), under the **same** ids on
    /// every member — the placement rule, its peeks riding in one exchange
    /// with `sizes`, two words every member must pass equal (`what` names
    /// the allocation when one does not).
    pub fn alloc_symmetric(
        &mut self,
        what: &str,
        flags: usize,
        bytes: usize,
        sizes: [u64; 2],
    ) -> (FlagId, SegmentId) {
        let [f, s] = peek(&*self.fabric, self.me);
        let g = self.allgather4([f, s, sizes[0], sizes[1]]);
        if let Some(j) = g.iter().position(|v| v[2..] != sizes) {
            panic!(
                "image {}: {what} allocation mismatch: team rank {j} asked for {:?}, rank {} for \
                 {sizes:?}",
                self.me.index(),
                &g[j][2..],
                self.rank
            );
        }
        let ids = place(
            &*self.fabric,
            self.me,
            g.iter().map(|v| [v[0], v[1]]),
            flags,
            bytes,
        );
        // The exchange's fence, after the allocation: nobody addresses the
        // new resource on a member before that member has allocated it.
        self.control_barrier();
        ids
    }

    /// Exchange four `u64`s with every team member; returns the values
    /// indexed by team rank.
    ///
    /// Implemented as a binomial-tree gather to rank 0 followed by a tree
    /// broadcast of the combined array — 2(n−1) messages in 2·log n depth
    /// (a flat exchange would be n² messages, which dominates team-
    /// formation cost at scale). The exchange slots stay busy until the
    /// caller's [`Self::control_barrier`], which every caller runs before
    /// the next exchange (after placing what the exchange agreed on).
    pub(crate) fn allgather4(&mut self, vals: [u64; 4]) -> Vec<[u64; 4]> {
        assert!(
            !self.provisioned,
            "image {}: a provisioned team has no exchange segment — it cannot \
             split (form_team), allgather, or allocate",
            self.me.index()
        );
        let n = self.size();
        // My own slot stays in local memory: only *remote* contributions
        // ever touch the exchange segment, so no fabric round-trips to
        // self are paid for my own four words.
        let mut slot = [0u8; EXCH_SLOT];
        for (i, v) in vals.iter().enumerate() {
            slot[i * 8..(i + 1) * 8].copy_from_slice(&v.to_ne_bytes());
        }
        if n == 1 {
            return vec![vals];
        }
        let my_exch = self.rsrc.exch;
        let v = self.rank;
        // The clear-lowest-bit tree, whose subtrees are contiguous ranks.
        let children: Vec<usize> = lowbit_children(v, n).collect();
        // Gather: wait for each child's subtree, then ship my whole
        // contiguous subtree range — my slot from memory, the children's
        // ranges from my exchange segment — to my parent.
        self.arrivals(flag::EXCH_GATHER, children.len() as u64);
        if v != 0 {
            let parent = lowbit_parent(v);
            let hi = lowbit_subtree(v, n).end;
            let bytes = (hi - v) * EXCH_SLOT;
            let mut sub = self.take_stage(bytes);
            sub[..EXCH_SLOT].copy_from_slice(&slot);
            if hi > v + 1 {
                self.fabric.get(
                    self.me,
                    self.me,
                    my_exch,
                    (v + 1) * EXCH_SLOT,
                    &mut sub[EXCH_SLOT..],
                );
            }
            self.put_flag_into(my_exch, parent, v * EXCH_SLOT, &sub, flag::EXCH_GATHER);
            self.restore_stage(sub);
            // Broadcast: wait for the combined array from my parent.
            self.arrivals(flag::EXCH_BCAST, 1);
        }
        // Assemble the full array once: remote contributions from my
        // exchange segment (children's subtrees at the root; the parent's
        // forwarded array elsewhere), my own slot from memory.
        let mut full = self.take_stage(n * EXCH_SLOT);
        if v == 0 {
            self.fabric
                .get(self.me, self.me, my_exch, EXCH_SLOT, &mut full[EXCH_SLOT..]);
        } else {
            self.fabric.get(self.me, self.me, my_exch, 0, &mut full);
        }
        full[v * EXCH_SLOT..(v + 1) * EXCH_SLOT].copy_from_slice(&slot);
        // Forward the full array to my children and decode it locally.
        for &c in &children {
            self.put_flag_into(my_exch, c, 0, &full, flag::EXCH_BCAST);
        }
        let out: Vec<[u64; 4]> = (0..n)
            .map(|j| {
                let mut v = [0u64; 4];
                for (i, vi) in v.iter_mut().enumerate() {
                    let base = j * EXCH_SLOT + i * 8;
                    *vi = u64::from_ne_bytes(full[base..base + 8].try_into().expect("8"));
                }
                v
            })
            .collect();
        self.restore_stage(full);
        out
    }

    /// A plain central-counter barrier on the team's control flags. Used by
    /// the control plane so that benchmarked collectives keep their own
    /// flag history clean.
    pub fn control_barrier(&mut self) {
        if self.size() == 1 {
            return;
        }
        let level = std::mem::take(&mut self.control);
        crate::barrier::walk(self, std::slice::from_ref(&level), None, 0, false);
        self.control = level;
    }

    // ------------------------------------------------------------------
    // Internal plumbing for the algorithm modules
    // ------------------------------------------------------------------

    /// Team tag for trace records: `first_member << 32 | size`. Stable for
    /// the team's life, distinct across sibling teams (their first members
    /// differ), and decodable without a registry.
    pub fn trace_tag(&self) -> u64 {
        ((self.members[0].index() as u64) << 32) | self.members.len() as u64
    }

    /// Fabric clock for a collective span's start/end, or 0 when tracing is
    /// off (spares the clock read — on the simulator, a lock acquisition —
    /// per collective call in untraced runs).
    pub(crate) fn trace_now(&self) -> u64 {
        if self.fabric.tracer().enabled() {
            self.fabric.now_ns(self.me)
        } else {
            0
        }
    }

    /// Record a collective-layer trace event on this image's ring.
    pub(crate) fn trace(&self, ev: Event) {
        self.fabric.tracer().record(self.me.index(), ev);
    }

    /// Record the span `[t0, now]` of a collective phase of this team:
    /// operand `a` is per kind, `b` the team tag, `c` the episode, `d` per
    /// kind (0 when the kind has none).
    pub(crate) fn trace_span(&self, kind: EventKind, t0: u64, lvl: Level, a: u64, c: u64, d: u64) {
        let dur = self.trace_now().saturating_sub(t0);
        let ev = Event::span(kind, t0, dur).a(a).b(self.trace_tag());
        self.trace(ev.c(c).d(d).level(lvl));
    }

    /// Notify team rank `to`: add `delta` to its flag `idx`.
    pub(crate) fn add_flag(&self, to: usize, idx: usize, delta: u64) {
        let flag = self.rsrc.flags.nth(idx);
        self.fabric.flag_add(self.me, self.members[to], flag, delta);
    }

    /// Wait for the `n` arrivals this episode brings on my flag `idx` (none:
    /// no wait) — the counted wait every collective waits through.
    pub(crate) fn arrivals(&mut self, idx: usize, n: u64) {
        self.arrived.wait(&*self.fabric, self.me, idx, n);
    }

    /// Wait until my flag `idx` has brought `total` arrivals since
    /// formation — for credits granted every episode and drawn on only some.
    pub(crate) fn arrivals_until(&mut self, idx: usize, total: u64) {
        self.arrived.wait_until(&*self.fabric, self.me, idx, total);
    }

    /// Borrow the comm-owned staging buffer, sized to `len` bytes
    /// (contents unspecified). Return it with [`Self::restore_stage`];
    /// the backing allocation is kept across calls.
    pub(crate) fn take_stage(&mut self, len: usize) -> Vec<u8> {
        let mut b = std::mem::take(&mut self.stage);
        b.resize(len, 0);
        b
    }

    /// Return the staging buffer taken with [`Self::take_stage`].
    pub(crate) fn restore_stage(&mut self, b: Vec<u8>) {
        self.stage = b;
    }

    /// Grow (collectively) the team scratch so each slot holds `slot_bytes`.
    /// Collective: all members must request the same size (they do, because
    /// collectives are called with matching buffers — checked in the
    /// exchange).
    pub(crate) fn ensure_scratch(&mut self, slot_bytes: usize) {
        if self.scratch_slot_bytes < slot_bytes {
            self.grow(Region::Scratch, slot_bytes);
        }
    }

    /// Grow (collectively) the gather/scatter region so each of its `n`
    /// slots holds `slot_bytes`.
    pub(crate) fn ensure_gather(&mut self, slot_bytes: usize) {
        if self.gather_slot_bytes < slot_bytes {
            self.grow(Region::Gather, slot_bytes);
        }
    }

    /// The one growth path of both regions: a slot fits the payload to 64 B
    /// and at least doubles on regrowth. (Rounding up to a power of two made
    /// a payload of 2^k + ε bytes cost 2^(k+1) per slot — HPL's panel
    /// broadcast doubled twelve scratch slots, a two-level gather forwarded
    /// the padding between nodes.)
    fn grow(&mut self, region: Region, slot_bytes: usize) {
        let (have, slots, what) = match region {
            Region::Scratch => (
                self.scratch_slot_bytes,
                self.layout.scratch_slots(),
                "scratch",
            ),
            Region::Gather => (self.gather_slot_bytes, self.size(), "gather region"),
        };
        assert!(
            !self.provisioned,
            "image {}: a provisioned team cannot grow its {what}: a payload of \
             {slot_bytes} B needs more than the {have} B per slot it was provisioned with",
            self.me.index(),
        );
        let new_slot = slot_bytes.max(2 * have).next_multiple_of(64);
        let sizes = [new_slot as u64, region as u64];
        let (_, seg) = self.alloc_symmetric(what, 0, slots * new_slot, sizes);
        match region {
            Region::Scratch => (self.rsrc.scratch, self.scratch_slot_bytes) = (seg, new_slot),
            Region::Gather => (self.rsrc.gather, self.gather_slot_bytes) = (seg, new_slot),
        }
    }

    /// Byte offset of recursive-doubling slot for round `k`, parity `p`.
    pub(crate) fn sl_rd(&self, k: usize, p: usize) -> usize {
        debug_assert!(k < self.layout.d && p < 2);
        (2 * k + p) * self.scratch_slot_bytes
    }

    /// Byte offset of the intranode gather slot for set position `pos`.
    pub(crate) fn sl_gather(&self, pos: usize, p: usize) -> usize {
        debug_assert!(pos < self.layout.lm && p < 2);
        (2 * self.layout.d + 2 * pos + p) * self.scratch_slot_bytes
    }

    /// Byte offset of the fold-in (pre) slot.
    pub(crate) fn sl_pre(&self, p: usize) -> usize {
        (2 * self.layout.d + 2 * self.layout.lm + p) * self.scratch_slot_bytes
    }

    /// Byte offset of the fold-out (post) slot.
    pub(crate) fn sl_post(&self, p: usize) -> usize {
        self.sl_pre(p) + 2 * self.scratch_slot_bytes
    }

    /// Byte offset of the broadcast payload slot.
    pub(crate) fn sl_bcast(&self, p: usize) -> usize {
        self.sl_pre(p) + 4 * self.scratch_slot_bytes
    }

    /// Byte offset of the reduction release slot.
    pub(crate) fn sl_release(&self, p: usize) -> usize {
        self.sl_pre(p) + 6 * self.scratch_slot_bytes
    }

    /// Byte offset of the ring broadcast's payload slot.
    pub(crate) fn sl_ring(&self, p: usize) -> usize {
        self.sl_pre(p) + 8 * self.scratch_slot_bytes
    }

    /// Region `r`'s segment (valid once its slot size is nonzero).
    fn seg_of(&self, r: Region) -> SegmentId {
        match r {
            Region::Scratch => self.rsrc.scratch,
            Region::Gather => self.rsrc.gather,
        }
    }

    /// Put `bytes` into team rank `to`'s segment `seg` at byte offset `off`
    /// and add 1 to its flag `idx`: one signalled put ([`Fabric::put_flag`]).
    fn put_flag_into(&self, seg: SegmentId, to: usize, off: usize, bytes: &[u8], idx: usize) {
        let (dst, flag) = (self.members[to], self.rsrc.flags.nth(idx));
        (self.fabric).put_flag(self.me, dst, seg, off, bytes, flag, 1);
    }

    /// Put `bytes` into team rank `to`'s region `r` at byte offset `off`,
    /// announced by one more arrival on its flag `idx` — payload and
    /// notification as one message (the data plane of every blocking hop).
    pub(crate) fn put_flag(&self, r: Region, to: usize, off: usize, bytes: &[u8], idx: usize) {
        self.put_flag_into(self.seg_of(r), to, off, bytes, idx);
    }

    /// Read `out.len()` bytes from my own region `r` at byte offset `off`.
    pub(crate) fn read_raw(&self, r: Region, off: usize, out: &mut [u8]) {
        (self.fabric).get(self.me, self.me, self.seg_of(r), off, out);
    }

    /// Serialize `src` and [`Self::put_flag`] it (the workhorse data-plane
    /// send of every collective).
    pub(crate) fn send_flagged<T: CoValue>(
        &mut self,
        r: Region,
        to: usize,
        off: usize,
        src: &[T],
        idx: usize,
    ) {
        let mut b = std::mem::take(&mut self.buf);
        slice_to_bytes(src, &mut b);
        self.put_flag(r, to, off, &b, idx);
        self.buf = b;
    }

    /// A pipelined chunk: serialize `src` and put it, nonblocking, into
    /// team rank `to`'s scratch at `off` — *injected*, but the wire time is
    /// not paid by the initiator. The chunk's flag follows as a separate
    /// [`Self::add_flag`]; the fabric's point-to-point ordering lands it
    /// after the payload (and the socket wire fuses the two while the put
    /// is still corked), so the returned token normally goes unused;
    /// `quiet` drains anything still in flight.
    pub(crate) fn send_values_nb<T: CoValue>(
        &mut self,
        to: usize,
        off: usize,
        src: &[T],
    ) -> PutToken {
        debug_assert!(self.scratch_slot_bytes > 0, "scratch not allocated");
        let mut b = std::mem::take(&mut self.buf);
        slice_to_bytes(src, &mut b);
        let tok = self
            .fabric
            .put_nb(self.me, self.members[to], self.rsrc.scratch, off, &b);
        self.buf = b;
        tok
    }

    /// Read my scratch slot at `off` and combine it element-wise into `buf`.
    pub(crate) fn combine_from_scratch<T: CoValue>(
        &mut self,
        off: usize,
        buf: &mut [T],
        f: &impl Fn(T, T) -> T,
    ) {
        let nbytes = buf.len() * T::SIZE;
        let mut b = std::mem::take(&mut self.buf2);
        b.resize(nbytes, 0);
        self.read_raw(Region::Scratch, off, &mut b);
        for (i, slot) in buf.iter_mut().enumerate() {
            let v = T::load(&b[i * T::SIZE..(i + 1) * T::SIZE]);
            *slot = f(*slot, v);
        }
        self.buf2 = b;
    }

    /// Read my region `r` at `off` into `buf` (overwrite).
    pub(crate) fn load_values<T: CoValue>(&mut self, r: Region, off: usize, buf: &mut [T]) {
        let nbytes = buf.len() * T::SIZE;
        let mut b = std::mem::take(&mut self.buf2);
        b.resize(nbytes, 0);
        self.read_raw(r, off, &mut b);
        bytes_to_slice(&b, buf);
        self.buf2 = b;
    }
}

impl Drop for TeamComm {
    /// A broadcast still owed its waves 2–3 strands the members waiting for
    /// this image's release (or its ack): say so here, not in their hang.
    /// Not while unwinding (a second panic would abort), and not for a team
    /// a recovery has already invalidated.
    fn drop(&mut self) {
        let owed = self.bcast_pending.iter().flatten().map(|p| p.e).min();
        let live = || !std::thread::panicking() && self.fabric.generation() == self.generation;
        if let Some(e) = owed.filter(|_| live()) {
            panic!(
                "image {}: team rank {} dropped its team with broadcast {e} begun and not \
                 finished — call co_broadcast_finish (or sync the team) first",
                self.me.index(),
                self.rank
            );
        }
    }
}
