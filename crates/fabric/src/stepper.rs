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
//! # Schedule equivalence with the threaded driver
//!
//! Both drivers read one queue ([`crate::evq`]) that holds the pending
//! events and every alive image's commit turn, keyed `(time, event before
//! turn, prio, rank)` over post-chaos-charge clocks: whatever is at its
//! head happens next. So they commit fabric ops in the same order and
//! produce bit-identical virtual times, flag values, and traces:
//!
//! - Turn-taking ops (put / flag-add / wait entry) charge their chaos
//!   delay when they become *pending* — exactly what the threaded
//!   `lock_turn` does on call entry — and commit only when the image's
//!   turn is at the head of the queue (nobody earlier, no event due). In
//!   the threaded driver an image whose charge has not landed yet can hold
//!   peers back for a moment of wall-clock time, but never changes who
//!   commits next: that is always the head over the *charged* keys, which
//!   is what this driver reads directly.
//! - Local ops (compute, retirement) touch only the issuing image's own
//!   clock and alive-set membership. The threaded driver applies them at
//!   an arbitrary wall-clock point; applying them at the argmin turn
//!   instead is observationally equivalent because they neither read nor
//!   reserve shared resources.
//!
//! The parity tests at the bottom hold `run_stepped` to
//! [`run_program_spmd`] (the same programs on real threads) with and
//! without chaos, and the one-queue core to the legacy global heap with
//! its O(n) scans ([`crate::SimConfig::legacy_queue`]).

use crate::seg::FlagId;
use crate::sim::{SimCore, SimFabric};
use crate::spmd::run_spmd;
use crate::Fabric;
use caf_topology::ProcId;
use parking_lot::Mutex;
use std::sync::Arc;

/// One fabric operation yielded by a hosted image program.
///
/// The op set covers what the scale kernels need: bootstrap-segment puts,
/// flag notifications, threshold waits, compute blocks, and retirement.
/// Data puts address [`crate::bootstrap::SEG`] (the bootstrap segment) —
/// hosted programs share it the way bootstrap-time runtime code does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOp {
    /// Blocking 8-byte put of `val` into `dst`'s bootstrap segment.
    Put {
        /// Destination image rank.
        dst: usize,
        /// Byte offset inside the bootstrap segment.
        offset: usize,
        /// Value written (native-endian).
        val: u64,
    },
    /// Add `delta` to `dst`'s accumulating sync flag.
    FlagAdd {
        /// Target image rank.
        dst: usize,
        /// Which bootstrap flag.
        flag: FlagId,
        /// Increment.
        delta: u64,
    },
    /// Block until the local flag reaches `at_least` (cumulative).
    WaitGe {
        /// Which bootstrap flag.
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

/// A resumable hosted-image program: a state machine that yields the
/// image's next fabric op each time it is resumed. After yielding
/// [`StepOp::Done`] it is never polled again.
pub trait StepProgram {
    /// The image's next operation.
    fn next(&mut self) -> StepOp;
}

/// What [`run_stepped`] simulated, for throughput accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SteppedReport {
    /// Ops committed through the scheduler (puts, flag-adds, wait entries).
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
    let turn_taking = matches!(
        op,
        StepOp::Put { .. } | StepOp::FlagAdd { .. } | StepOp::WaitGe { .. }
    );
    match &fab.cfg.chaos {
        Some(ch) if turn_taking => {
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
        match op {
            StepOp::Put { dst, offset, val } => {
                grant(&mut core, me, my_op);
                report.committed_ops += 1;
                fab.put_body(
                    &mut core,
                    me,
                    dst,
                    crate::bootstrap::SEG,
                    offset,
                    &val.to_ne_bytes(),
                );
                admit(fab, &mut core, &nodes, &mut progs, &mut hosts, me);
            }
            StepOp::FlagAdd { dst, flag, delta } => {
                grant(&mut core, me, my_op);
                report.committed_ops += 1;
                fab.flag_add_body(&mut core, me, dst, flag, delta);
                admit(fab, &mut core, &nodes, &mut progs, &mut hosts, me);
            }
            StepOp::WaitGe { flag, at_least } => {
                grant(&mut core, me, my_op);
                report.committed_ops += 1;
                let t_entry = core.time[me];
                if fab.flag_wait_enter(&mut core, me, flag, at_least) {
                    admit(fab, &mut core, &nodes, &mut progs, &mut hosts, me);
                } else {
                    hosts[me] = Host::Waiting {
                        flag,
                        at_least,
                        t_entry,
                    };
                }
            }
            StepOp::Compute { ns } => {
                report.local_ops += 1;
                fab.compute_body(&mut core, me, ns);
                admit(fab, &mut core, &nodes, &mut progs, &mut hosts, me);
            }
            StepOp::Done => {
                report.local_ops += 1;
                core.set_done(me);
                hosts[me] = Host::Done;
                live -= 1;
            }
        }
    }
    report.max_time_ns = core.time.iter().copied().max().unwrap_or(0);
    report
}

/// Commit-turn bookkeeping; a chaos kill poisons the core and panics,
/// matching the threaded driver's behavior.
fn grant(core: &mut SimCore, me: usize, my_op: u64) {
    if let Err(msg) = core.grant_commit(me, my_op) {
        panic!("{msg}");
    }
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
        loop {
            match prog.next() {
                StepOp::Put { dst, offset, val } => f.put(
                    me,
                    ProcId(dst),
                    crate::bootstrap::SEG,
                    offset,
                    &val.to_ne_bytes(),
                ),
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

/// Collective kernels as hosted-image state machines — the workloads of
/// the `exp_s1_simscale` bench. They mirror `caf-collectives`' shapes
/// (dissemination barrier, binomial trees) over the bootstrap resources,
/// on the same tree helpers (`caf_topology::tree`, below both crates).
pub mod kernels {
    use super::{StepOp, StepProgram};
    use crate::seg::FlagId;
    use caf_topology::tree::{binomial_children, binomial_parent, ceil_log2};

    /// Bootstrap flag used by [`DisseminationBarrier`].
    pub const BARRIER_FLAG: FlagId = FlagId(0);
    /// Bootstrap flag used by [`BinomialBroadcast`].
    pub const BCAST_FLAG: FlagId = FlagId(1);
    /// Bootstrap flag used by [`BinomialReduce`].
    pub const REDUCE_FLAG: FlagId = FlagId(2);

    /// Dissemination barrier over [`BARRIER_FLAG`], `epochs` times. Round
    /// `k` notifies `(me + 2^k) mod n` and waits for the cumulative count
    /// `epoch * rounds + k + 1` — every image receives exactly one
    /// notification per round, so thresholds never reset.
    pub struct DisseminationBarrier {
        me: usize,
        n: usize,
        rounds: usize,
        epochs: u64,
        epoch: u64,
        round: usize,
        /// False = the round's notify is next; true = its wait is next.
        waiting: bool,
    }

    impl DisseminationBarrier {
        /// A barrier program for image `me` of `n`, run `epochs` times.
        pub fn new(me: usize, n: usize, epochs: u64) -> Self {
            Self {
                me,
                n,
                rounds: ceil_log2(n),
                epochs,
                epoch: 0,
                round: 0,
                waiting: false,
            }
        }
    }

    impl StepProgram for DisseminationBarrier {
        fn next(&mut self) -> StepOp {
            if self.epoch == self.epochs || self.rounds == 0 {
                return StepOp::Done;
            }
            if !self.waiting {
                self.waiting = true;
                let dst = (self.me + (1 << self.round)) % self.n;
                StepOp::FlagAdd {
                    dst,
                    flag: BARRIER_FLAG,
                    delta: 1,
                }
            } else {
                self.waiting = false;
                let at_least = self.epoch * self.rounds as u64 + self.round as u64 + 1;
                self.round += 1;
                if self.round == self.rounds {
                    self.round = 0;
                    self.epoch += 1;
                }
                StepOp::WaitGe {
                    flag: BARRIER_FLAG,
                    at_least,
                }
            }
        }
    }

    /// Per-epoch phase of a broadcast image: waiting for the payload from
    /// the parent, or forwarding to child `idx`.
    enum BcastPhase {
        Wait,
        /// `(child index, payload already put — flag-add is next)`.
        Child(usize, bool),
    }

    /// Binomial-tree broadcast rooted at image 0, `epochs` times: each
    /// non-root waits for [`BCAST_FLAG`] ≥ epoch+1, then every image puts
    /// the 8-byte payload to each child (offset 0) and notifies it.
    pub struct BinomialBroadcast {
        me: usize,
        children: Vec<usize>,
        epochs: u64,
        epoch: u64,
        phase: BcastPhase,
    }

    impl BinomialBroadcast {
        /// A broadcast program for image `me` of `n`, run `epochs` times.
        pub fn new(me: usize, n: usize, epochs: u64) -> Self {
            Self {
                me,
                children: binomial_children(me, n),
                epochs,
                epoch: 0,
                phase: if me == 0 {
                    BcastPhase::Child(0, false)
                } else {
                    BcastPhase::Wait
                },
            }
        }

        fn advance_epoch(&mut self) {
            self.epoch += 1;
            self.phase = if self.me == 0 {
                BcastPhase::Child(0, false)
            } else {
                BcastPhase::Wait
            };
        }
    }

    impl StepProgram for BinomialBroadcast {
        fn next(&mut self) -> StepOp {
            loop {
                if self.epoch == self.epochs {
                    return StepOp::Done;
                }
                match self.phase {
                    BcastPhase::Wait => {
                        self.phase = BcastPhase::Child(0, false);
                        return StepOp::WaitGe {
                            flag: BCAST_FLAG,
                            at_least: self.epoch + 1,
                        };
                    }
                    BcastPhase::Child(idx, sent_payload) => {
                        if idx == self.children.len() {
                            self.advance_epoch();
                            continue;
                        }
                        let dst = self.children[idx];
                        if !sent_payload {
                            self.phase = BcastPhase::Child(idx, true);
                            return StepOp::Put {
                                dst,
                                offset: 0,
                                val: self.epoch + 1,
                            };
                        }
                        self.phase = BcastPhase::Child(idx + 1, false);
                        return StepOp::FlagAdd {
                            dst,
                            flag: BCAST_FLAG,
                            delta: 1,
                        };
                    }
                }
            }
        }
    }

    /// Per-epoch phase of a reduce image: waiting for all children, putting
    /// the partial to the parent, or notifying the parent.
    enum ReducePhase {
        Wait,
        PutUp,
        NotifyUp,
    }

    /// Binomial-tree reduction to image 0, `epochs` times: each parent
    /// waits on [`REDUCE_FLAG`] for the cumulative arrival count of all
    /// its children, then each non-root puts its 8-byte partial into its
    /// per-child slot (`child_index * 8`) in the parent's bootstrap
    /// segment and notifies it. A tree node has at most ⌈log₂ n⌉
    /// children, so the slots fit any bootstrap segment of ≥ 4 slots up
    /// to astronomically large fleets.
    pub struct BinomialReduce {
        me: usize,
        parent: usize,
        /// My position among the parent's children (slot index).
        child_index: usize,
        n_children: u64,
        epochs: u64,
        epoch: u64,
        phase: ReducePhase,
    }

    impl BinomialReduce {
        /// A reduce program for image `me` of `n`, run `epochs` times.
        pub fn new(me: usize, n: usize, epochs: u64) -> Self {
            let n_children = binomial_children(me, n).len() as u64;
            let (parent, child_index) = if me == 0 {
                (0, 0)
            } else {
                let p = binomial_parent(me);
                let idx = binomial_children(p, n)
                    .iter()
                    .position(|&c| c == me)
                    .expect("me is a child of its parent");
                (p, idx)
            };
            Self {
                me,
                parent,
                child_index,
                n_children,
                epochs,
                epoch: 0,
                phase: if n_children > 0 {
                    ReducePhase::Wait
                } else {
                    ReducePhase::PutUp
                },
            }
        }

        fn advance_epoch(&mut self) {
            self.epoch += 1;
            self.phase = if self.n_children > 0 {
                ReducePhase::Wait
            } else {
                ReducePhase::PutUp
            };
        }
    }

    impl StepProgram for BinomialReduce {
        fn next(&mut self) -> StepOp {
            loop {
                if self.epoch == self.epochs {
                    return StepOp::Done;
                }
                match self.phase {
                    ReducePhase::Wait => {
                        self.phase = ReducePhase::PutUp;
                        return StepOp::WaitGe {
                            flag: REDUCE_FLAG,
                            at_least: (self.epoch + 1) * self.n_children,
                        };
                    }
                    ReducePhase::PutUp => {
                        if self.me == 0 {
                            self.advance_epoch();
                            continue;
                        }
                        self.phase = ReducePhase::NotifyUp;
                        return StepOp::Put {
                            dst: self.parent,
                            offset: self.child_index * 8,
                            val: self.epoch + 1,
                        };
                    }
                    ReducePhase::NotifyUp => {
                        self.advance_epoch();
                        return StepOp::FlagAdd {
                            dst: self.parent,
                            flag: REDUCE_FLAG,
                            delta: 1,
                        };
                    }
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn barrier_program_yields_notify_wait_pairs() {
            let mut p = DisseminationBarrier::new(1, 4, 2);
            let mut ops = Vec::new();
            loop {
                let op = p.next();
                ops.push(op);
                if op == StepOp::Done {
                    break;
                }
            }
            // 2 epochs x 2 rounds x (notify + wait) + Done.
            assert_eq!(ops.len(), 9);
            // Round 0 from rank 1 of 4 notifies (1 + 2^0) % 4 = 2.
            assert_eq!(
                ops[0],
                StepOp::FlagAdd {
                    dst: 2,
                    flag: BARRIER_FLAG,
                    delta: 1
                }
            );
            assert_eq!(
                ops[1],
                StepOp::WaitGe {
                    flag: BARRIER_FLAG,
                    at_least: 1
                }
            );
            // Second epoch's thresholds are cumulative.
            assert_eq!(
                ops[5],
                StepOp::WaitGe {
                    flag: BARRIER_FLAG,
                    at_least: 3
                }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::kernels::{BinomialBroadcast, BinomialReduce, DisseminationBarrier};
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
        SimFabric::new(
            map,
            SimConfig {
                cost: presets::whale_cost(),
                overheads: SoftwareOverheads::NONE,
                chaos: chaos_seed.map(crate::chaos::ChaosConfig::from_seed),
                legacy_queue,
                ..SimConfig::default()
            },
        )
    }

    /// All three kernels back to back, as one program per image.
    fn mixed_programs(n: usize, epochs: u64) -> Vec<Chained> {
        (0..n)
            .map(|me| Chained {
                stages: vec![
                    Box::new(DisseminationBarrier::new(me, n, epochs)),
                    Box::new(BinomialBroadcast::new(me, n, epochs)),
                    Box::new(BinomialReduce::new(me, n, epochs)),
                ],
                at: 0,
            })
            .collect()
    }

    /// Runs a list of programs in sequence (Done of one starts the next).
    struct Chained {
        stages: Vec<Box<dyn StepProgram + Send>>,
        at: usize,
    }

    impl StepProgram for Chained {
        fn next(&mut self) -> StepOp {
            while self.at < self.stages.len() {
                match self.stages[self.at].next() {
                    StepOp::Done => self.at += 1,
                    op => return op,
                }
            }
            StepOp::Done
        }
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
    fn stepped_matches_threaded_bit_for_bit() {
        for chaos_seed in [None, Some(3), Some(11)] {
            let f_threaded = fabric(8, chaos_seed, false);
            run_program_spmd(Arc::clone(&f_threaded), mixed_programs(8, 3));
            let f_stepped = fabric(8, chaos_seed, false);
            let report = run_stepped(&f_stepped, mixed_programs(8, 3));
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
            assert!(report.committed_ops > 0 && report.local_ops > 0);
        }
    }

    #[test]
    fn stepped_legacy_and_one_queue_cores_agree() {
        for chaos_seed in [None, Some(29)] {
            let f_legacy = fabric(8, chaos_seed, true);
            let r_legacy = run_stepped(&f_legacy, mixed_programs(8, 3));
            let f_queue = fabric(8, chaos_seed, false);
            let r_queue = run_stepped(&f_queue, mixed_programs(8, 3));
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
        let (nodes, per_node, n, epochs) = (4, 12, 48, 4);
        let f_threaded = fabric_on(nodes, per_node, n, Some(seed), false);
        run_program_spmd(Arc::clone(&f_threaded), mixed_programs(n, epochs));
        let f_stepped = fabric_on(nodes, per_node, n, Some(seed), false);
        let r_stepped = run_stepped(&f_stepped, mixed_programs(n, epochs));
        let f_legacy = fabric_on(nodes, per_node, n, Some(seed), true);
        let r_legacy = run_stepped(&f_legacy, mixed_programs(n, epochs));
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
        let r1 = run_stepped(&fabric(8, Some(7), false), mixed_programs(8, 2));
        let t1 = {
            let f = fabric(8, Some(7), false);
            run_stepped(&f, mixed_programs(8, 2));
            final_times(&f)
        };
        let f2 = fabric(8, Some(7), false);
        let r2 = run_stepped(&f2, mixed_programs(8, 2));
        assert_eq!(r1, r2);
        assert_eq!(t1, final_times(&f2));
    }

    #[test]
    fn stepped_deadlock_panics_with_report() {
        struct Stuck;
        impl StepProgram for Stuck {
            fn next(&mut self) -> StepOp {
                StepOp::WaitGe {
                    flag: kernels::BARRIER_FLAG,
                    at_least: 1,
                }
            }
        }
        let f = fabric(2, None, false);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_stepped(&f, vec![Stuck, Stuck]);
        }));
        let msg = *out
            .expect_err("must deadlock")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("deadlock"), "got: {msg}");
    }

    #[test]
    fn hosted_fleet_larger_than_sane_thread_counts() {
        // 4096 hosted images on one thread: far past what run_spmd should
        // be asked to do, trivial for the stepped driver.
        let n = 4096;
        let map = ImageMap::new(
            presets::mini(8, 512),
            n,
            &Placement::Block { per_node: 512 },
        );
        let f = SimFabric::new(
            map,
            SimConfig {
                cost: presets::whale_cost(),
                overheads: SoftwareOverheads::NONE,
                bootstrap_slots: Some(4),
                ..SimConfig::default()
            },
        );
        let progs: Vec<_> = (0..n)
            .map(|me| DisseminationBarrier::new(me, n, 2))
            .collect();
        let report = run_stepped(&f, progs);
        // 2 epochs x ceil_log2(4096)=12 rounds x (notify + wait) per image.
        assert_eq!(report.committed_ops, (n as u64) * 2 * 12 * 2);
        assert_eq!(report.local_ops, n as u64);
        assert!(report.max_time_ns > 0);
    }
}
