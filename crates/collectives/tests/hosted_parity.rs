//! Driver parity on the real algorithms: every barrier, broadcast and
//! reduction algorithm is run three episodes on a provisioned team twice —
//! once as hosted programs stepped from this thread (the bodies run against
//! a recorder, their ops are committed by `run_stepped`), once from one
//! thread per image calling the same methods on the simulator itself — and
//! the two fleets must end with equal per-image clocks, equal makespan and
//! equal counters, with chaos off and on. A body that steered by something
//! the fabric told it would either trip the recorder or show up here.
//!
//! The second half holds the recorder's and the provisioned team's
//! refusals to their texts.

use caf_collectives::{
    hosted, BarrierAlgo, BcastAlgo, CollectiveConfig, Provisioned, ReduceAlgo, SizePolicy, TeamComm,
};
use caf_fabric::{
    panic_message, run_spmd, run_stepped, ChaosConfig, Fabric, SimConfig, SimFabric, StatsSnapshot,
};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use std::sync::Arc;

const EPISODES: u64 = 3;

/// 8 u64 elements per chunk; the crossovers are moot (no `Auto`).
const POLICY: SizePolicy = SizePolicy {
    chunk_bytes: 64,
    crossover_bytes: usize::MAX,
};

/// Payloads in u64 elements: 8 B, and three chunks plus one element.
const LENS: [usize; 2] = [1, 25];

#[derive(Clone, Copy, Debug)]
enum Place {
    /// `virtual_time_pin.rs`' placement on whale: 4 / 3 / 1 images on three
    /// nodes, ranks interleaved, both sockets of the first two in use.
    Ragged,
    /// Three nodes of four.
    Block,
    /// Four images on one whale node: a one-node team of power-of-two size.
    OneNode,
}

fn fabric(place: Place, chaos: bool) -> Arc<SimFabric> {
    let map = match place {
        Place::Ragged => {
            let cores = vec![0, 8, 1, 16, 12, 2, 5, 13];
            ImageMap::new(presets::whale(), cores.len(), &Placement::Custom(cores))
        }
        Place::Block => ImageMap::new(presets::mini(3, 4), 12, &Placement::Block { per_node: 4 }),
        Place::OneNode => ImageMap::new(presets::whale(), 4, &Placement::Packed),
    };
    // A reshuffle every 7 commits, jitter on calls and events, and late,
    // duplicated landings for the pipelined trees' nonblocking puts.
    let chaos = chaos.then(|| {
        let seed = (0u64..)
            .find(|&s| ChaosConfig::from_seed(s).pct_interval == 7)
            .expect("a third of the seeds");
        ChaosConfig {
            completion_delay_ns: 900,
            duplicate_completions: true,
            ..ChaosConfig::from_seed(seed)
        }
    });
    SimFabric::new(
        map,
        SimConfig {
            chaos,
            ..SimConfig::default()
        },
    )
}

#[derive(Clone, Copy, Debug)]
enum Program {
    Barrier,
    /// Elements; the root is the episode number modulo the team size.
    Bcast(usize),
    /// Elements.
    Sum(usize),
    /// Elements, along the ring; the root rotates as `Bcast`'s does.
    Ring(usize),
    /// `(value, index)` elements under HPL's pivot MAXLOC.
    MaxLoc(usize),
}

impl Program {
    fn scratch_bytes(self) -> usize {
        match self {
            Program::Barrier => 0,
            Program::Bcast(len) | Program::Sum(len) | Program::Ring(len) => 8 * len,
            Program::MaxLoc(len) => 16 * len,
        }
    }

    /// One image's episode: the same closure for both drivers.
    fn episode(self) -> impl FnMut(&mut TeamComm) + Clone + Send + 'static {
        let mut e = 0usize;
        move |c: &mut TeamComm| {
            e += 1;
            c.set_size_policy(POLICY);
            match self {
                Program::Barrier => c.barrier(),
                Program::Bcast(len) => c.co_broadcast(&mut vec![e as u64; len], e % c.size()),
                Program::Sum(len) => c.co_sum(&mut vec![e as u64; len]),
                Program::Ring(len) => c.co_broadcast_ring(&mut vec![e as u64; len], e % c.size()),
                Program::MaxLoc(len) => {
                    let mine = (e as f64, c.rank() as u64);
                    c.co_reduce_with(&mut vec![mine; len], |a, b| {
                        if a.0 > b.0 || (a.0 == b.0 && a.1 <= b.1) {
                            a
                        } else {
                            b
                        }
                    })
                }
            }
        }
    }
}

/// `(per-image clocks, makespan, counters)` at the end of a run.
type Outcome = (Vec<u64>, u64, StatsSnapshot);

fn outcome(sim: &SimFabric) -> Outcome {
    let clocks = (0..sim.n_images()).map(|i| sim.now_ns(ProcId(i))).collect();
    (clocks, sim.max_time_ns(), sim.stats().snapshot())
}

fn provision(sim: &SimFabric, cfg: CollectiveConfig, program: Program) -> Provisioned {
    let members = (0..sim.n_images()).map(ProcId).collect();
    Provisioned::new(sim, members, cfg, program.scratch_bytes())
}

fn stepped(place: Place, chaos: bool, cfg: CollectiveConfig, program: Program) -> Outcome {
    let sim = fabric(place, chaos);
    let team = provision(&sim, cfg, program);
    let report = run_stepped(
        &sim,
        hosted::fleet(&sim, &team, EPISODES, program.episode()),
    );
    let out = outcome(&sim);
    assert_eq!(report.max_time_ns, out.1);
    out
}

fn threaded(place: Place, chaos: bool, cfg: CollectiveConfig, program: Program) -> Outcome {
    let sim = fabric(place, chaos);
    let team = provision(&sim, cfg, program);
    let f = sim.clone();
    run_spmd(sim.clone(), move |me| {
        let mut comm = team.comm(f.clone(), me.index());
        let mut episode = program.episode();
        for _ in 0..EPISODES {
            episode(&mut comm);
        }
        f.image_done(me);
    });
    outcome(&sim)
}

/// Every algorithm under test, as a config and a program.
fn cases() -> Vec<(String, CollectiveConfig, Program)> {
    let base = CollectiveConfig::two_level();
    let mut cases = Vec::new();
    for barrier in [
        BarrierAlgo::CentralCounter,
        BarrierAlgo::BinomialTree,
        BarrierAlgo::Dissemination,
        BarrierAlgo::Tdlb,
        BarrierAlgo::TdlbMultilevel,
    ] {
        let cfg = CollectiveConfig { barrier, ..base };
        cases.push((format!("barrier {barrier:?}"), cfg, Program::Barrier));
    }
    for len in LENS {
        for bcast in [
            BcastAlgo::FlatLinear,
            BcastAlgo::FlatBinomial,
            BcastAlgo::TwoLevel,
            BcastAlgo::TwoLevelPipelined,
        ] {
            let cfg = CollectiveConfig { bcast, ..base };
            cases.push((
                format!("bcast {bcast:?} len={len}"),
                cfg,
                Program::Bcast(len),
            ));
        }
        for reduce in [
            ReduceAlgo::FlatRecursiveDoubling,
            ReduceAlgo::FlatBinomial,
            ReduceAlgo::TwoLevel,
            ReduceAlgo::TwoLevelPipelined,
            ReduceAlgo::Rabenseifner,
        ] {
            let cfg = CollectiveConfig { reduce, ..base };
            cases.push((
                format!("reduce {reduce:?} len={len}"),
                cfg,
                Program::Sum(len),
            ));
        }
    }
    cases
}

#[test]
fn hosted_and_threaded_runs_of_the_same_bodies_agree() {
    let cases = cases();
    assert_eq!(cases.len(), 5 + 2 * (4 + 5));
    for place in [Place::Ragged, Place::Block] {
        for chaos in [false, true] {
            for (label, cfg, program) in &cases {
                let (h, t) = (
                    stepped(place, chaos, *cfg, *program),
                    threaded(place, chaos, *cfg, *program),
                );
                let what = format!("{label} on {place:?}, chaos {chaos}");
                assert_eq!(h.0, t.0, "per-image clocks: {what}");
                assert_eq!(h.1, t.1, "makespan: {what}");
                assert_eq!(h.2, t.2, "counters: {what}");
                assert!(h.1 > 0, "{what} did nothing");
            }
        }
    }
}

/// The ring broadcast from rotating roots, both payload sizes: its credit
/// waits are thresholds the body computes, so the hosted run matches too.
#[test]
fn hosted_and_threaded_ring_broadcasts_agree() {
    let cfg = CollectiveConfig::two_level();
    for place in [Place::Ragged, Place::Block] {
        for chaos in [false, true] {
            for len in LENS {
                let program = Program::Ring(len);
                let (h, t) = (
                    stepped(place, chaos, cfg, program),
                    threaded(place, chaos, cfg, program),
                );
                let what = format!("ring len={len} on {place:?}, chaos {chaos}");
                assert_eq!(h.0, t.0, "per-image clocks: {what}");
                assert_eq!(h.1, t.1, "makespan: {what}");
                assert_eq!(h.2, t.2, "counters: {what}");
                assert!(h.1 > 0, "{what} did nothing");
            }
        }
    }
}

/// A one-node team of four under the two-level configuration reduces by
/// recursive doubling, hosted as threaded, for a sum and a MAXLOC alike:
/// both runs match each other and a forced `FlatRecursiveDoubling`.
#[test]
fn hosted_and_threaded_one_node_reductions_agree() {
    let cfg = CollectiveConfig::two_level();
    let rd = CollectiveConfig {
        reduce: ReduceAlgo::FlatRecursiveDoubling,
        ..cfg
    };
    for chaos in [false, true] {
        for len in LENS {
            for program in [Program::Sum(len), Program::MaxLoc(len)] {
                let (h, t) = (
                    stepped(Place::OneNode, chaos, cfg, program),
                    threaded(Place::OneNode, chaos, cfg, program),
                );
                let what = format!("{program:?} on one node, chaos {chaos}");
                assert_eq!(h.0, t.0, "per-image clocks: {what}");
                assert_eq!(h.1, t.1, "makespan: {what}");
                assert_eq!(h.2, t.2, "counters: {what}");
                assert!(h.1 > 0, "{what} did nothing");
                let flat = threaded(Place::OneNode, chaos, rd, program);
                assert_eq!(t, flat, "recursive doubling: {what}");
            }
        }
    }
}

/// The pipelined trees reach the stepper as nonblocking puts, and a hosted
/// run lands as many of them as it injects.
#[test]
fn a_hosted_pipelined_broadcast_streams_nonblocking_puts() {
    let cfg = CollectiveConfig {
        bcast: BcastAlgo::TwoLevelPipelined,
        ..CollectiveConfig::two_level()
    };
    let (_, _, stats) = stepped(Place::Block, false, cfg, Program::Bcast(25));
    // Four chunks to each other member, three episodes.
    assert_eq!(stats.puts_nb_injected, 4 * 11 * EPISODES);
    assert_eq!(stats.puts_nb_completed, stats.puts_nb_injected);
}

/// The panic message of a hosted one-episode run of `episode` on the block
/// placement, provisioned for `scratch_bytes` payloads.
fn hosted_panic(
    cfg: CollectiveConfig,
    scratch_bytes: usize,
    episode: impl FnMut(&mut TeamComm) + Clone,
) -> String {
    let sim = fabric(Place::Block, false);
    let members = (0..sim.n_images()).map(ProcId).collect();
    let team = Provisioned::new(&*sim, members, cfg, scratch_bytes);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_stepped(&sim, hosted::fleet(&sim, &team, 1, episode));
    }));
    panic_message(&*out.expect_err("the fleet must be refused"))
}

#[test]
fn calls_that_could_steer_a_body_are_refused_by_name_and_rank() {
    let cfg = CollectiveConfig::two_level();
    type Episode = fn(&mut TeamComm);
    let refused: [(&str, Episode); 4] = [
        ("now_ns", |c| _ = c.fabric().now_ns(c.proc_of(0))),
        ("quiet", |c| c.fabric().quiet(c.proc_of(0))),
        ("flag_read", |c| {
            _ = c.fabric().flag_read(c.proc_of(0), caf_fabric::FlagId(0))
        }),
        ("alloc_segment", |c| {
            _ = c.fabric().alloc_segment(c.proc_of(0), 64)
        }),
    ];
    for (call, episode) in refused {
        // Image 0 is admitted first, so it is the one that trips.
        let msg = hosted_panic(cfg, 8, episode);
        let want = format!("hosted image 0: {call} cannot be recorded");
        assert!(msg.starts_with(&want), "{call}: {msg}");
    }
}

#[test]
fn a_provisioned_team_refuses_to_grow_or_split() {
    let cfg = CollectiveConfig::two_level();
    // Hosted: refused while recording, before an allgather could be taped.
    let msg = hosted_panic(cfg, 8, |c| c.co_sum(&mut [0u64; 2]));
    let want = "image 0: a provisioned team cannot grow its scratch: a payload of \
                16 B needs more than the 8 B per slot it was provisioned with";
    assert_eq!(msg, want);
    let msg = hosted_panic(cfg, 0, |c| c.co_sum(&mut [0u64; 1]));
    assert!(msg.contains("more than the 0 B per slot"), "{msg}");

    // Threaded, on the simulator itself: the same refusals.
    let sim = fabric(Place::Block, false);
    let team = provision(&sim, cfg, Program::Sum(1));
    let mut comm = team.comm(sim.clone(), 3);
    let grow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        comm.co_broadcast(&mut [0u64; 4], 0);
    }));
    let msg = panic_message(&*grow.expect_err("growth must be refused"));
    assert!(
        msg.starts_with("image 3: a provisioned team cannot grow its scratch"),
        "{msg}"
    );
    let split = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        comm.create_sub(1, None, None);
    }));
    let msg = panic_message(&*split.expect_err("a split must be refused"));
    assert!(
        msg.starts_with("image 3: a provisioned team has no exchange segment"),
        "{msg}"
    );
}

#[test]
fn provisioning_needs_one_allocation_history_on_every_member() {
    let sim = fabric(Place::Block, false);
    sim.alloc_flags(ProcId(5), 1);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        provision(&sim, CollectiveConfig::two_level(), Program::Barrier);
    }));
    let msg = panic_message(&*out.expect_err("uneven histories must be refused"));
    assert!(
        msg.contains("image 5: provisioning needs one allocation history on every member"),
        "{msg}"
    );
}
