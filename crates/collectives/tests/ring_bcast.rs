//! The ring broadcast (`co_broadcast_ring`): payloads travel in rank order
//! and flow control is one credit per member per episode, returned to the
//! ring predecessor. However far a chain of fast roots runs ahead of a slow
//! receiver, whatever anyone reads is its episode's payload; a sender
//! reuses a slot only once its successor has read what the slot held two
//! episodes before, and never waits for more; ring and split-phase tree
//! broadcasts interleave on one team; and a ring episode is n − 1 signalled
//! puts and n credits on teams of every size, ragged placements included.

use caf_collectives::{BcastAlgo, CollectiveConfig, Provisioned, SizePolicy, TeamComm};
use caf_fabric::{
    run_spmd, ArcFabric, ChaosConfig, Fabric, SimConfig, SimFabric, ThreadConfig, ThreadFabric,
};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const ALGOS: [BcastAlgo; 4] = [
    BcastAlgo::FlatLinear,
    BcastAlgo::FlatBinomial,
    BcastAlgo::TwoLevel,
    BcastAlgo::TwoLevelPipelined,
];

/// 8 u64 elements per chunk: a 25-element tree payload streams in four
/// chunks when pipelined.
const POLICY: SizePolicy = SizePolicy {
    chunk_bytes: 64,
    crossover_bytes: usize::MAX,
};
const LEN: usize = 25;

/// Whale with 4 / 3 / 1 images on three nodes, ranks interleaved
/// (`virtual_time_pin.rs`' placement), or three nodes of four.
fn map(ragged: bool) -> ImageMap {
    if ragged {
        let cores = vec![0, 8, 1, 16, 12, 2, 5, 13];
        ImageMap::new(presets::whale(), cores.len(), &Placement::Custom(cores))
    } else {
        ImageMap::new(presets::mini(3, 4), 12, &Placement::Block { per_node: 4 })
    }
}

fn sim_of(map: ImageMap, chaos: Option<ChaosConfig>) -> Arc<SimFabric> {
    let config = SimConfig {
        chaos,
        ..SimConfig::default()
    };
    SimFabric::new(map, config)
}

fn config(bcast: BcastAlgo) -> CollectiveConfig {
    CollectiveConfig {
        bcast,
        ..CollectiveConfig::two_level()
    }
}

/// Episode `e`'s payload, distinct per episode and element.
fn payload(e: usize) -> Vec<u64> {
    (0..LEN as u64).map(|i| ((e as u64) << 32) | i).collect()
}

/// `payload(e)` at `root`, zeros elsewhere.
fn buffer(team: &TeamComm, e: usize, root: usize) -> Vec<u64> {
    if team.rank() == root {
        payload(e)
    } else {
        vec![0; LEN]
    }
}

/// Run `body(team, me)` on every image of `fabric` with a fresh initial
/// team under `cfg`.
fn with_team(
    fabric: ArcFabric,
    cfg: CollectiveConfig,
    body: impl Fn(&mut TeamComm, ProcId) + Send + Sync + 'static,
) {
    let f = fabric.clone();
    run_spmd(fabric, move |me| {
        let mut boot = 0u64;
        let mut team = TeamComm::create_initial(f.clone(), me, cfg, &mut boot);
        team.set_size_policy(POLICY);
        body(&mut team, me);
        f.image_done(me);
    });
}

/// Roots of the `3n` episodes: in rank order (HPL's panel owners), or
/// striding by three so a root is rarely its predecessor's successor.
fn root(e: usize, n: usize, stride: usize) -> usize {
    (stride * e) % n
}

/// One image, the last rank, arrives late at every episode; everyone else
/// runs ring broadcasts back to back, with no barrier until the end — a
/// chain of fast roots that only the credits hold back.
fn slow_receiver(fabric: ArcFabric, delay: impl Fn(ProcId) + Send + Sync + 'static) {
    let n = fabric.n_images();
    with_team(fabric, config(BcastAlgo::TwoLevel), move |team, me| {
        // Grow the scratch (a collective exchange) before anyone is late.
        team.co_broadcast_ring(&mut payload(0), 0);
        for stride in [1, 3] {
            for e in 1..=3 * n {
                let root = root(e, n, stride);
                if team.rank() == n - 1 {
                    delay(me);
                }
                let mut v = buffer(team, e, root);
                team.co_broadcast_ring(&mut v, root);
                assert_eq!(v, payload(e), "stride {stride} episode {e} at {me:?}");
            }
        }
        team.barrier();
    });
}

#[test]
fn a_slow_receiver_reads_every_payload_on_the_simulator() {
    for ragged in [true, false] {
        let sim = sim_of(map(ragged), None);
        let f = sim.clone();
        slow_receiver(sim, move |me| f.compute(me, 40_000));
    }
}

#[test]
fn a_slow_receiver_reads_every_payload_under_chaos() {
    for seed in [3, 11, 29] {
        let chaos = ChaosConfig {
            completion_delay_ns: 900,
            duplicate_completions: true,
            ..ChaosConfig::from_seed(seed)
        };
        for ragged in [true, false] {
            let sim = sim_of(map(ragged), Some(chaos));
            let f = sim.clone();
            slow_receiver(sim, move |me| f.compute(me, 40_000));
        }
    }
}

#[test]
fn a_slow_receiver_reads_every_payload_on_threads() {
    let threads = ThreadFabric::new(map(false), ThreadConfig::default());
    slow_receiver(threads, |_| std::thread::sleep(Duration::from_micros(300)));
}

/// Why both slots, and why a later arrival cannot stand in for an earlier
/// one. Four images, root 0 every time, image 1 (root 0's successor) late
/// at every episode: root 0 sends episode e + 1 while image 1 still owes
/// episode e, so image 1's arrival count can hold two episodes at once.
/// Each must read its own slot: were the slot fixed, e + 1 would overwrite
/// e before image 1 read it.
#[test]
fn a_later_episode_never_passes_for_an_earlier_one() {
    for chaos in [None, Some(ChaosConfig::from_seed(5))] {
        let sim = sim_of(
            ImageMap::new(presets::mini(4, 1), 4, &Placement::Packed),
            chaos,
        );
        let f = sim.clone();
        with_team(sim, config(BcastAlgo::FlatBinomial), move |team, me| {
            team.co_broadcast_ring(&mut payload(0), 0);
            for e in 1..=8 {
                if me.index() == 1 {
                    f.compute(me, 40_000);
                }
                let mut v = buffer(team, e, 0);
                team.co_broadcast_ring(&mut v, 0);
                assert_eq!(v, payload(e), "episode {e} at {me:?}");
            }
            team.barrier();
        });
    }
}

/// Image 1, root 0's successor, reaches its first ring episode 1 ms late.
/// Root 0 sends episodes 1 and 2 without waiting for it — each goes to a
/// free slot — but episode 3 reuses episode 1's slot and waits for image 1's
/// credit for episode 1. It waits for nothing else: no ack, no release.
#[test]
fn a_root_waits_only_to_reuse_a_slot() {
    let fabric = sim_of(
        ImageMap::new(presets::mini(4, 1), 4, &Placement::Packed),
        None,
    );
    let f = fabric.clone();
    // Image 1's clock when it starts its first episode, then image 0's
    // after each of its three.
    let seen = Arc::new(Mutex::new(vec![0u64]));
    let s = seen.clone();
    with_team(fabric, config(BcastAlgo::FlatLinear), move |team, me| {
        team.co_broadcast_ring(&mut payload(0), 0);
        if me.index() == 1 {
            f.compute(me, 1_000_000);
            s.lock().unwrap()[0] = f.now_ns(me);
        }
        for e in 1..=3 {
            let mut v = buffer(team, e, 0);
            team.co_broadcast_ring(&mut v, 0);
            assert_eq!(v, payload(e));
            if me.index() == 0 {
                s.lock().unwrap().push(f.now_ns(me));
            }
        }
        team.barrier();
    });
    let t = seen.lock().unwrap().clone();
    let late = t[0];
    assert!(
        t[2] < late,
        "episode 2 waited for image 1, whose slot was free: {t:?}"
    );
    assert!(
        t[3] > late,
        "episode 3 reused episode 1's slot before image 1 read it: {t:?}"
    );
}

/// Ring episodes between the two halves of split-phase tree broadcasts,
/// with a reduction and a slow image in the mix: each protocol keeps its
/// own slots and counts, so neither reads the other's data.
fn interleaved(fabric: ArcFabric, algo: BcastAlgo, delay: impl Fn(ProcId) + Send + Sync + 'static) {
    let n = fabric.n_images();
    with_team(fabric, config(algo), move |team, me| {
        for e in 1..=2 * n {
            let (tree_root, ring_root) = (root(e, n, 3), root(e, n, 1));
            if team.rank() == n / 2 {
                delay(me);
            }
            let mut t = buffer(team, 2 * e, tree_root);
            team.co_broadcast_begin(&mut t, tree_root);
            let mut r = buffer(team, 2 * e + 1, ring_root);
            team.co_broadcast_ring(&mut r, ring_root);
            let mut s = [e as u64, 1];
            team.co_sum(&mut s);
            if e % 2 == 0 {
                team.co_broadcast_finish();
            }
            let what = format!("{algo:?} episode {e} at {me:?}");
            assert_eq!(t, payload(2 * e), "tree: {what}");
            assert_eq!(r, payload(2 * e + 1), "ring: {what}");
            assert_eq!(s, [(n * e) as u64, n as u64], "sum: {what}");
        }
        team.barrier();
    });
}

#[test]
fn ring_and_split_tree_broadcasts_interleave_on_one_team() {
    for algo in ALGOS {
        for ragged in [true, false] {
            let sim = sim_of(map(ragged), None);
            let f = sim.clone();
            interleaved(sim, algo, move |me| f.compute(me, 40_000));
        }
        let chaos = sim_of(map(true), Some(ChaosConfig::from_seed(11)));
        let f = chaos.clone();
        interleaved(chaos, algo, move |me| f.compute(me, 40_000));
        let threads = ThreadFabric::new(map(false), ThreadConfig::default());
        interleaved(threads, algo, |_| {
            std::thread::sleep(Duration::from_micros(200))
        });
    }
}

/// Every root of teams of 1, 2 and 3 images and of the ragged placement,
/// on a provisioned team (no formation traffic): each episode delivers, and
/// costs exactly n − 1 signalled puts of the payload and n credits.
#[test]
fn every_root_of_every_team_size_costs_n_minus_one_hops_and_n_credits() {
    let maps = [
        ImageMap::new(presets::mini(1, 1), 1, &Placement::Packed),
        ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed),
        ImageMap::new(presets::mini(3, 1), 3, &Placement::Packed),
        ImageMap::new(presets::mini(2, 2), 3, &Placement::Packed),
        map(true),
    ];
    for map in maps {
        let n = map.n_images();
        let what = format!("{n} images on {} nodes", map.machine().nodes);
        let sim = sim_of(map, None);
        let members = (0..n).map(ProcId).collect();
        let team = Arc::new(Provisioned::new(
            &*sim,
            members,
            CollectiveConfig::two_level(),
            8 * LEN,
        ));
        let f = sim.clone();
        let episodes = 2 * n + 1;
        run_spmd(sim.clone(), move |me| {
            let mut comm = team.comm(f.clone(), me.index());
            for e in 1..=episodes {
                let root = e % n;
                let mut v = buffer(&comm, e, root);
                comm.co_broadcast_ring(&mut v, root);
                assert_eq!(v, payload(e), "episode {e} at {me:?}");
            }
            // Nothing is left to finish: the team drops cleanly.
            drop(comm);
            f.image_done(me);
        });
        let s = sim.stats().snapshot();
        let (puts, flags) = (s.puts_intra + s.puts_inter, s.flags_intra + s.flags_inter);
        let (e, n) = (episodes as u64, n as u64);
        let (hops, credits) = if n == 1 { (0, 0) } else { (n - 1, n) };
        assert_eq!(puts, e * hops, "puts: {what}");
        assert_eq!(flags, e * (hops + credits), "flags: {what}");
        assert_eq!(
            s.bytes_intra + s.bytes_inter,
            e * hops * 8 * LEN as u64,
            "payload bytes: {what}"
        );
    }
}

/// A root sends and returns; one thread can play it alone, and its team
/// drops without a word — there is no broadcast left unfinished.
#[test]
fn a_root_drops_its_team_with_nothing_to_finish() {
    let threads: ArcFabric = ThreadFabric::new(map(false), ThreadConfig::default());
    let members = (0..threads.n_images()).map(ProcId).collect();
    let team = Provisioned::new(&*threads, members, config(BcastAlgo::FlatLinear), 8 * LEN);
    let mut comm = team.comm(threads.clone(), 2);
    comm.co_broadcast_ring(&mut payload(1), 2);
    comm.co_broadcast_ring(&mut payload(2), 2);
    drop(comm);
}
