//! `ImageCtx` — the per-image runtime context: team stack, intrinsics,
//! synchronization statements, and collective entry points.

use crate::coarray::Coarray;
use crate::events::Events;
use crate::recovery::CheckpointStore;
use crate::team::{Team, INITIAL_TEAM_NUMBER};
use caf_collectives::{CoNumeric, CoValue, CollectiveConfig, TeamComm};
use caf_fabric::{bootstrap, ArcFabric, Arrivals, RecoveryError};
use caf_topology::ProcId;
use caf_trace::{Event, EventKind};

/// Cell index within the critical-section lock coarray.
const CRITICAL_CELL: usize = 0;

/// The per-image runtime context handed to the SPMD body by
/// [`crate::run`]. All image numbering in this API is Fortran-style
/// **1-based**, relative to the *current team* unless stated otherwise.
pub struct ImageCtx {
    fabric: ArcFabric,
    me: ProcId,
    boot_epoch: u64,
    default_cfg: CollectiveConfig,
    /// Team stack: `[0]` = initial team, last = current team.
    teams: Vec<Team>,
    /// Pairwise `sync images` flags, one per global image (identical ids
    /// across images, allocated before any user code), and how many times
    /// I have synchronized with each.
    sync: Arrivals,
    /// Global lock cell backing the `critical` construct (one `u64` on
    /// image 1 of the initial team).
    critical_lock: Coarray<u64>,
    /// Last checkpoint epoch this image completed or restored (0 = none).
    ckpt_epoch: u64,
}

impl ImageCtx {
    /// Build the context for image `me`; collective across all images
    /// (called by the launcher on every image thread).
    pub(crate) fn new(fabric: ArcFabric, me: ProcId, cfg: CollectiveConfig) -> Self {
        let all = (0..fabric.n_images()).map(ProcId).collect();
        Self::formed(fabric, me, all, cfg)
    }

    /// Build the context for image `me` on a **respawned** process
    /// rejoining a running fleet (a fabric constructed with a rejoin
    /// generation). The initial-team bootstrap would wait forever on
    /// survivors that are long past it; instead this joins the survivors'
    /// recovery fence ([`caf_fabric::Fabric::heal`]) and then forms the
    /// same team as [`Self::form_recovery_team`], so the rejoined image
    /// comes up already inside the recovery team — at checkpoint epoch 0,
    /// ready for [`Self::restore`] to resolve the last globally complete
    /// epoch with the survivors.
    pub fn rejoin(
        fabric: ArcFabric,
        me: ProcId,
        cfg: CollectiveConfig,
    ) -> Result<Self, RecoveryError> {
        fabric.heal(me)?;
        let survivors = fabric.alive_images();
        Ok(Self::formed(fabric, me, survivors, cfg))
    }

    /// The context of image `me` with `members` as its initial team, on a
    /// fabric whose tables have their startup shape (fresh, or healed):
    /// the `sync images` flags, the team and the `critical` lock, in one
    /// allocation order on every member — what a team without a parent
    /// needs (`TeamComm::create_among`).
    fn formed(fabric: ArcFabric, me: ProcId, members: Vec<ProcId>, cfg: CollectiveConfig) -> Self {
        let n = fabric.n_images();
        let sync_flags = fabric.alloc_flags(me, n);
        let mut boot_epoch = 0;
        let mut comm = TeamComm::create_among(fabric.clone(), me, members, cfg, &mut boot_epoch);
        let critical_lock = Coarray::allocate(&mut comm, 1);
        let initial = Team {
            comm,
            number: INITIAL_TEAM_NUMBER,
            depth: 0,
        };
        Self {
            fabric,
            me,
            boot_epoch,
            default_cfg: cfg,
            teams: vec![initial],
            sync: Arrivals::new(sync_flags, n),
            critical_lock,
            ckpt_epoch: 0,
        }
    }

    /// Final implicit synchronization at program end (called by the
    /// launcher after the user body returns). Barriers over the *initial
    /// team's current membership* — after a shrinking recovery that is the
    /// survivor set, and a full-fabric barrier would wait forever on the
    /// dead image.
    pub(crate) fn finalize(&mut self) {
        let members: Vec<ProcId> = self.teams[0].comm.members().as_ref().clone();
        bootstrap::control_barrier_among(&*self.fabric, self.me, &members, &mut self.boot_epoch);
        self.fabric.image_done(self.me);
    }

    // ------------------------------------------------------------------
    // Intrinsics
    // ------------------------------------------------------------------

    /// `this_image()`: my 1-based index in the current team.
    pub fn this_image(&self) -> usize {
        self.current().this_image()
    }

    /// `num_images()`: size of the current team.
    pub fn num_images(&self) -> usize {
        self.current().num_images()
    }

    /// `team_number()`: number of the current team (−1 for the initial
    /// team).
    pub fn team_number(&self) -> i64 {
        self.current().team_number()
    }

    /// Nesting depth of the current team (0 = initial).
    pub fn team_depth(&self) -> usize {
        self.teams.len() - 1
    }

    /// `get_team()`: the current team handle (immutable view).
    pub fn get_team(&self) -> &Team {
        self.current()
    }

    /// The initial team spanning all images.
    pub fn initial_team(&self) -> &Team {
        &self.teams[0]
    }

    /// Map a current-team image index (1-based) to the image's index in
    /// the **initial** team — the `image_index` adaptation the paper adds
    /// for teams (the `team_type` mapping array made queryable).
    pub fn image_index_in_initial(&self, idx1: usize) -> usize {
        let comm = &self.current().comm;
        assert!(
            (1..=comm.size()).contains(&idx1),
            "image index {idx1} outside team of {}",
            comm.size()
        );
        comm.proc_of(idx1 - 1).index() + 1
    }

    /// The fabric this run executes on (statistics, clocks).
    pub fn fabric(&self) -> &ArcFabric {
        &self.fabric
    }

    /// Current time in nanoseconds (virtual on the simulator).
    pub fn now_ns(&self) -> u64 {
        self.fabric.now_ns(self.me)
    }

    /// Account `ns` nanoseconds of local computation (virtual time on the
    /// simulator; free on real fabrics where computing takes real time).
    pub fn compute(&self, ns: u64) {
        self.fabric.compute(self.me, ns);
    }

    // ------------------------------------------------------------------
    // Teams
    // ------------------------------------------------------------------

    /// `form team (number, handle)`: split the current team by `number`.
    /// Collective over the current team; every image must call it.
    pub fn form_team(&mut self, number: i64) -> Team {
        self.form_team_inner(number, None)
    }

    /// `form team (number, handle, new_index=idx)`: as [`Self::form_team`]
    /// with an explicit 1-based index in the new team. All members of a
    /// subteam must then supply distinct indices 1..=m.
    pub fn form_team_with_index(&mut self, number: i64, new_index: usize) -> Team {
        self.form_team_inner(number, Some(new_index))
    }

    fn form_team_inner(&mut self, number: i64, new_index: Option<usize>) -> Team {
        let depth = self.team_depth() + 1;
        let t0 = self.trace_now();
        let comm = self.current_mut().comm.create_sub(number, new_index, None);
        self.trace(
            Event::span(EventKind::FormTeam, t0, self.trace_now().saturating_sub(t0))
                .a(comm.trace_tag())
                .b(comm.size() as u64)
                .c(number as u64),
        );
        Team {
            comm,
            number,
            depth,
        }
    }

    /// `change team (team) … end team`: run `body` with `team` as the
    /// current team. Synchronizes the team's members on entry and on exit
    /// (the implicit syncs of the Fortran construct) and returns the team
    /// handle back together with `body`'s result.
    pub fn change_team<R>(
        &mut self,
        mut team: Team,
        body: impl FnOnce(&mut Self) -> R,
    ) -> (Team, R) {
        let tag = team.comm.trace_tag();
        let t0 = self.trace_now();
        team.comm.barrier(); // implied sync at change team
        self.trace(
            Event::span(
                EventKind::ChangeTeam,
                t0,
                self.trace_now().saturating_sub(t0),
            )
            .a(tag),
        );
        self.teams.push(team);
        let out = body(self);
        let mut team = self.teams.pop().expect("team stack underflow");
        assert!(
            !self.teams.is_empty(),
            "change_team closed the initial team"
        );
        let t1 = self.trace_now();
        team.comm.barrier(); // implied sync at end team
        self.trace(Event::span(EventKind::EndTeam, t1, self.trace_now().saturating_sub(t1)).a(tag));
        (team, out)
    }

    // ------------------------------------------------------------------
    // Synchronization statements
    // ------------------------------------------------------------------

    /// `sync all`: barrier over the **current team** (Fortran 2015
    /// semantics), with the algorithm the team was formed with.
    pub fn sync_all(&mut self) {
        self.current_mut().comm.barrier();
    }

    /// `sync team (team)`: barrier over an arbitrary team handle.
    pub fn sync_team(&mut self, team: &mut Team) {
        team.comm.barrier();
    }

    /// `sync images (list)`: pairwise synchronization with the given
    /// current-team images (1-based). Every named image must execute a
    /// matching `sync_images` naming this image.
    pub fn sync_images(&mut self, images1: &[usize]) {
        let t0 = self.trace_now();
        let comm = &self.current().comm;
        let partners: Vec<ProcId> = images1
            .iter()
            .map(|&i| {
                assert!(
                    (1..=comm.size()).contains(&i),
                    "sync images: index {i} outside team of {}",
                    comm.size()
                );
                comm.proc_of(i - 1)
            })
            .collect();
        // Notify every partner first (its flag slot for *me*), then wait.
        for &p in &partners {
            if p == self.me {
                continue;
            }
            self.fabric
                .flag_add(self.me, p, self.sync.flag(self.me.index()), 1);
        }
        for &p in &partners {
            if p == self.me {
                continue;
            }
            self.sync.wait(&*self.fabric, self.me, p.index(), 1);
        }
        self.trace(
            Event::span(
                EventKind::SyncImages,
                t0,
                self.trace_now().saturating_sub(t0),
            )
            .a(partners.len() as u64),
        );
    }

    /// `sync images (*)`: pairwise synchronization with **every** other
    /// image of the current team.
    pub fn sync_images_all(&mut self) {
        let all: Vec<usize> = (1..=self.num_images()).collect();
        self.sync_images(&all);
    }

    /// `sync memory`: complete my outstanding one-sided operations.
    pub fn sync_memory(&self) {
        let t0 = self.trace_now();
        self.fabric.quiet(self.me);
        self.trace(Event::span(
            EventKind::SyncMemory,
            t0,
            self.trace_now().saturating_sub(t0),
        ));
    }

    /// The Fortran `critical … end critical` construct: run `body` while
    /// holding a global mutual-exclusion lock (one per program, per the
    /// unnamed-critical semantics). Built on a remote compare-and-swap
    /// against a cell on image 1 of the initial team.
    ///
    /// Do not call collectives or other blocking synchronization inside the
    /// body — as in Fortran, that deadlocks.
    pub fn critical<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> R {
        let ticket = self.me.index() as u64 + 1;
        loop {
            let old = self.critical_lock.atomic_cas(1, CRITICAL_CELL, 0, ticket);
            if old == 0 {
                break;
            }
            // The fabric accounts each retry, so spinning advances virtual
            // time and the holder keeps making progress.
        }
        let out = body(self);
        let released = self.critical_lock.atomic_cas(1, CRITICAL_CELL, ticket, 0);
        assert_eq!(released, ticket, "critical lock corrupted");
        out
    }

    /// Gather `mine` from every image of the current team to
    /// `root_image` (1-based); the root receives the concatenation in team
    /// order, everyone else `None`.
    pub fn co_gather<T: CoValue>(&mut self, mine: &[T], root_image: usize) -> Option<Vec<T>> {
        let root = root_image.checked_sub(1).expect("root_image is 1-based");
        self.current_mut().comm.co_gather(mine, root)
    }

    /// Scatter from `root_image` (1-based): the root supplies
    /// `num_images()·out.len()` elements; image `i` receives slice `i-1`.
    pub fn co_scatter<T: CoValue>(&mut self, all: Option<&[T]>, out: &mut [T], root_image: usize) {
        let root = root_image.checked_sub(1).expect("root_image is 1-based");
        self.current_mut().comm.co_scatter(all, out, root);
    }

    /// All-to-all personalized exchange on the current team: `send` holds
    /// `num_images()` slices of `len` elements (slice `j` for image `j+1`);
    /// returns the received slices in image order — the distributed
    /// transpose.
    pub fn co_alltoall<T: CoValue>(&mut self, send: &[T], len: usize) -> Vec<T> {
        self.current_mut().comm.co_alltoall(send, len)
    }

    /// Gather `mine` from every image of the current team; returns the
    /// concatenation in team order (every image gets the same vector).
    /// All images must pass the same `mine.len()`.
    ///
    /// Not a Fortran intrinsic, but the utility every CAF application
    /// writes on day one; a [`Self::co_gather`] to image 1 and a
    /// [`Self::co_broadcast`] from it, so it allocates nothing the team's
    /// collectives do not already hold.
    pub fn co_allgather<T: CoValue>(&mut self, mine: &[T]) -> Vec<T> {
        let n = self.num_images();
        let mut out = self.co_gather(mine, 1).unwrap_or_else(|| mine.repeat(n));
        self.co_broadcast(&mut out, 1);
        out
    }

    // ------------------------------------------------------------------
    // Collectives on the current team
    // ------------------------------------------------------------------

    /// `co_sum(a)`: element-wise sum over the current team, result on all
    /// images. (With `result_image` semantics, keep the value only where
    /// needed — the communication is an all-reduce either way here.)
    pub fn co_sum<T: CoNumeric>(&mut self, buf: &mut [T]) {
        self.current_mut().comm.co_sum(buf);
    }

    /// `co_min(a)`.
    pub fn co_min<T: CoNumeric>(&mut self, buf: &mut [T]) {
        self.current_mut().comm.co_min(buf);
    }

    /// `co_max(a)`.
    pub fn co_max<T: CoNumeric>(&mut self, buf: &mut [T]) {
        self.current_mut().comm.co_max(buf);
    }

    /// `co_reduce(a, op)` with a user operation (must be commutative and
    /// associative).
    pub fn co_reduce_with<T: CoValue>(&mut self, buf: &mut [T], f: impl Fn(T, T) -> T) {
        self.current_mut().comm.co_reduce_with(buf, f);
    }

    /// `co_broadcast(a, source_image)`: replicate `buf` from the 1-based
    /// `source_image` of the current team.
    pub fn co_broadcast<T: CoValue>(&mut self, buf: &mut [T], source_image: usize) {
        let root = source_image
            .checked_sub(1)
            .expect("source_image is 1-based");
        self.current_mut().comm.co_broadcast(buf, root);
    }

    /// Split-phase `co_broadcast` over the current team: on return every
    /// image's `buf` holds `source_image`'s data, and the broadcast is
    /// finished by [`Self::co_broadcast_finish`], the next `sync all`, or
    /// the `begin` two broadcasts later (`TeamComm::co_broadcast_begin`).
    pub fn co_broadcast_begin<T: CoValue>(&mut self, buf: &mut [T], source_image: usize) {
        let root = source_image
            .checked_sub(1)
            .expect("source_image is 1-based");
        self.current_mut().comm.co_broadcast_begin(buf, root);
    }

    /// Finish every broadcast begun on the current team.
    pub fn co_broadcast_finish(&mut self) {
        self.current_mut().comm.co_broadcast_finish();
    }

    /// `co_broadcast` along the current team's ring, in image order from
    /// `source_image`: nothing to finish, suited to sources that advance in
    /// image order (`TeamComm::co_broadcast_ring`).
    pub fn co_broadcast_ring<T: CoValue>(&mut self, buf: &mut [T], source_image: usize) {
        let root = source_image
            .checked_sub(1)
            .expect("source_image is 1-based");
        self.current_mut().comm.co_broadcast_ring(buf, root);
    }

    // ------------------------------------------------------------------
    // Coarrays and events
    // ------------------------------------------------------------------

    /// Allocate a coarray of `elems` elements per image over the **current
    /// team** (the paper's memory benefit: allocation inside a `change
    /// team` block involves only that team's images). Collective.
    pub fn coarray<T: CoValue>(&mut self, elems: usize) -> Coarray<T> {
        Coarray::allocate(&mut self.current_mut().comm, elems)
    }

    /// Allocate `count` event variables per image over the current team
    /// (CAF `event_type` coarray). Collective.
    pub fn events(&mut self, count: usize) -> Events {
        Events::allocate(&mut self.current_mut().comm, count)
    }

    // ------------------------------------------------------------------
    // Fault tolerance: fallible collectives, shrinking team re-formation,
    // checkpoint/rollback
    // ------------------------------------------------------------------

    /// Run a synchronizing operation fallibly: a dead peer that would
    /// otherwise poison-panic this image becomes a catchable
    /// [`RecoveryError`]. The fabric is health-checked first so an already
    /// poisoned fabric fails fast without entering the collective.
    ///
    /// On `Err` the operation did not complete; in/out buffers may hold
    /// partial intermediate values and this image's collective state is
    /// unusable until [`Self::form_recovery_team`] rebuilds it.
    fn try_collective<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> Result<R, RecoveryError> {
        let fabric = self.fabric.clone();
        fabric.health()?;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)))
            .map_err(|payload| crate::recovery::panic_to_recovery(&fabric, payload))
    }

    /// Fallible [`Self::sync_all`]: `Err` instead of a poison panic when a
    /// peer died. The canonical failure-detection point of a
    /// recovery-aware program.
    pub fn try_sync_all(&mut self) -> Result<(), RecoveryError> {
        self.try_collective(|ctx| ctx.sync_all())
    }

    /// Fallible [`Self::co_sum`]. On `Err`, `buf` may hold a partial
    /// reduction — restore it from a checkpoint before resuming.
    pub fn try_co_sum<T: CoNumeric>(&mut self, buf: &mut [T]) -> Result<(), RecoveryError> {
        self.try_collective(|ctx| ctx.co_sum(buf))
    }

    /// Fallible [`Self::co_min`].
    pub fn try_co_min<T: CoNumeric>(&mut self, buf: &mut [T]) -> Result<(), RecoveryError> {
        self.try_collective(|ctx| ctx.co_min(buf))
    }

    /// Fallible [`Self::co_max`].
    pub fn try_co_max<T: CoNumeric>(&mut self, buf: &mut [T]) -> Result<(), RecoveryError> {
        self.try_collective(|ctx| ctx.co_max(buf))
    }

    /// Fallible [`Self::co_broadcast`].
    pub fn try_co_broadcast<T: CoValue>(
        &mut self,
        buf: &mut [T],
        source_image: usize,
    ) -> Result<(), RecoveryError> {
        self.try_collective(|ctx| ctx.co_broadcast(buf, source_image))
    }

    /// Fallible [`Self::co_gather`].
    pub fn try_co_gather<T: CoValue>(
        &mut self,
        mine: &[T],
        root_image: usize,
    ) -> Result<Option<Vec<T>>, RecoveryError> {
        self.try_collective(|ctx| ctx.co_gather(mine, root_image))
    }

    /// Re-form the initial team from exactly the surviving images after a
    /// peer death, with dense renumbering (`this_image()` = 1-based rank
    /// within the survivor set). Collective across **all survivors**: every
    /// surviving image must call it, typically after catching a
    /// [`RecoveryError`] from a `try_*` entry point.
    ///
    /// The call first heals the fabric (a survivor rendezvous that clears
    /// the poison, resets synchronization state, and bumps the fabric
    /// generation), then rebuilds this image's entire collective context
    /// over the survivors. **All pre-failure handles are invalidated**:
    /// coarrays, events, locks, and team handles allocated before the
    /// failure must not be used again. Re-allocate them in the same SPMD
    /// order on every survivor and refill from a checkpoint
    /// ([`Self::restore`] + [`Coarray::restore_local_bytes`]).
    ///
    /// Returns the size of the re-formed team.
    pub fn form_recovery_team(&mut self) -> Result<usize, RecoveryError> {
        // A dead image must never enter the heal rendezvous — it would be
        // counted against the survivor quorum.
        if !self.fabric.alive_images().contains(&self.me) {
            return Err(RecoveryError::HealFailed(format!(
                "image {} is not among the survivors",
                self.me.index() + 1
            )));
        }
        self.fabric.heal(self.me)?;
        let survivors = self.fabric.alive_images();
        let n = survivors.len();
        // Every pre-failure handle goes with the old context; restore()
        // re-establishes the agreed checkpoint epoch from 0.
        *self = Self::formed(self.fabric.clone(), self.me, survivors, self.default_cfg);
        Ok(n)
    }

    /// Take checkpoint epoch `N+1` (one past the last completed/restored
    /// epoch) over the current team. Collective. The protocol:
    ///
    /// 1. **Fence**: `sync memory` + `sync all`, so no one-sided traffic is
    ///    in flight and every image's segments are quiescent;
    /// 2. `snapshot(self)` captures this image's payloads (typically
    ///    [`Coarray::local_bytes`] of each registered coarray) — called
    ///    only after the fence, so the bytes are the fenced state;
    /// 3. atomic local commit into `store` (temp file + rename when
    ///    file-backed);
    /// 4. completion barrier.
    ///
    /// A node dying anywhere in this sequence leaves each store either
    /// without the epoch or with it complete — never torn. The epoch is
    /// only counted as this image's latest after step 3, and only counted
    /// *globally* complete when every team member committed it, which
    /// [`Self::restore`] resolves with a `co_min`.
    pub fn checkpoint(
        &mut self,
        store: &CheckpointStore,
        snapshot: impl FnOnce(&mut Self) -> Vec<Vec<u8>>,
    ) -> Result<u64, RecoveryError> {
        let epoch = self.ckpt_epoch + 1;
        let img = self.me.index();
        let payloads = self.try_collective(|ctx| {
            ctx.sync_memory();
            ctx.sync_all();
            snapshot(ctx)
        })?;
        store
            .commit(img, epoch, &payloads)
            .map_err(|e| RecoveryError::HealFailed(format!("checkpoint commit failed: {e}")))?;
        self.try_collective(|ctx| ctx.sync_all())?;
        self.ckpt_epoch = epoch;
        Ok(epoch)
    }

    /// Roll back to the last **globally complete** checkpoint epoch.
    /// Collective over the current team (after a failure: the recovery
    /// team). Each member reports `latest_committed + 1` (0 = none); a
    /// `co_min` resolves the largest epoch *every* member committed —
    /// epochs some-but-not-all members committed (a death mid-checkpoint)
    /// are thereby discarded, never half-restored.
    ///
    /// Returns `Ok(None)` when no epoch is globally complete (restart from
    /// initial state), else `Ok(Some((epoch, payloads)))` with this image's
    /// own snapshot payloads in the order `snapshot` produced them. Apply
    /// them (e.g. [`Coarray::restore_local_bytes`]) and then
    /// [`Self::try_sync_all`] before resuming, so every image re-enters the
    /// epoch together.
    pub fn restore(
        &mut self,
        store: &CheckpointStore,
    ) -> Result<Option<(u64, crate::recovery::SnapshotPayloads)>, RecoveryError> {
        let img = self.me.index();
        let mut probe = [store.latest_committed(img).map_or(0, |e| e + 1)];
        self.try_collective(|ctx| ctx.co_min(&mut probe))?;
        let agreed = probe[0];
        if agreed == 0 {
            self.ckpt_epoch = 0;
            return Ok(None);
        }
        let epoch = agreed - 1;
        let payloads = store.load(img, epoch).ok_or_else(|| {
            RecoveryError::HealFailed(format!(
                "image {}: epoch {epoch} resolved globally complete but is missing locally",
                img + 1
            ))
        })?;
        self.ckpt_epoch = epoch;
        Ok(Some((epoch, payloads)))
    }

    /// Run `body` with automatic shrink-and-retry recovery: on a
    /// [`RecoveryError`] (returned *or* panicked — local coarray accesses
    /// that hit a poisoned fabric panic rather than return `Err`), the
    /// initial team is re-formed over the survivors and `body` restarted
    /// from the top, up to `max_recoveries` times.
    ///
    /// `body` must be written restartably: allocate its coarrays first (in
    /// the same SPMD order each attempt), then [`Self::restore`] from the
    /// checkpoint store to decide whether to roll back or initialize. A
    /// dead image's call fails fast with `HealFailed` without joining the
    /// survivor rendezvous.
    pub fn recovering<R>(
        &mut self,
        max_recoveries: usize,
        body: impl Fn(&mut Self) -> Result<R, RecoveryError>,
    ) -> Result<R, RecoveryError> {
        let mut recoveries = 0;
        loop {
            let fabric = self.fabric.clone();
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(self)))
                .unwrap_or_else(|payload| {
                    Err(crate::recovery::panic_to_recovery(&fabric, payload))
                });
            match attempt {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if recoveries >= max_recoveries {
                        return Err(e);
                    }
                    recoveries += 1;
                    self.form_recovery_team()?;
                }
            }
        }
    }

    /// Last checkpoint epoch this image completed or restored (0 = none).
    pub fn checkpoint_epoch(&self) -> u64 {
        self.ckpt_epoch
    }

    /// This fabric's recovery generation: 0 at first launch, bumped by
    /// every successful heal. Collectively meaningful after
    /// [`Self::form_recovery_team`].
    pub fn generation(&self) -> u64 {
        self.fabric.generation()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Fabric clock for runtime-statement spans, or 0 when tracing is off.
    fn trace_now(&self) -> u64 {
        if self.fabric.tracer().enabled() {
            self.fabric.now_ns(self.me)
        } else {
            0
        }
    }

    /// Record a runtime-statement trace event on this image's ring.
    fn trace(&self, ev: Event) {
        self.fabric.tracer().record(self.me.index(), ev);
    }

    fn current(&self) -> &Team {
        self.teams.last().expect("team stack never empty")
    }

    fn current_mut(&mut self) -> &mut Team {
        self.teams.last_mut().expect("team stack never empty")
    }

    /// The current team's communication structure (crate-internal).
    pub(crate) fn current_comm_mut(&mut self) -> &mut TeamComm {
        &mut self.current_mut().comm
    }

    /// Default collective configuration of this run (inherited by teams).
    pub fn collective_config(&self) -> CollectiveConfig {
        self.default_cfg
    }
}
