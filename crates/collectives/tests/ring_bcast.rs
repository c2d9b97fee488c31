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
use caf_topology::{presets, ImageMap, Placement, ProcId, SoftwareOverheads};
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

// ---------------------------------------------------------------------
// A ring of three or more streams its payload: every member forwards a
// chunk of `POLICY.chunk_bytes` as soon as it has loaded it, and each
// chunk is one signalled put and one arrival.
// ---------------------------------------------------------------------

/// Three chunks of `POLICY` and a ragged tail of five elements.
const LONG: usize = 29;

/// `len` elements of episode `e`, distinct per episode and element.
fn long_payload(e: usize, len: usize) -> Vec<u64> {
    (0..len as u64).map(|i| ((e as u64) << 32) | i).collect()
}

/// Rings of 3 (two nodes, ranks interleaved) and of 5 (three nodes).
fn odd_rings() -> [ImageMap; 2] {
    [
        ImageMap::new(presets::mini(2, 2), 3, &Placement::Cyclic),
        ImageMap::new(presets::mini(3, 2), 5, &Placement::Packed),
    ]
}

/// Every rank in turn arrives late at every episode while the rest run
/// `LONG`-element ring broadcasts back to back, roots in rank order and
/// striding by two; no barrier until the end.
fn slow_chunked(fabric: ArcFabric, delay: impl Fn(ProcId) + Send + Sync + 'static) {
    let n = fabric.n_images();
    with_team(fabric, config(BcastAlgo::TwoLevel), move |team, me| {
        team.co_broadcast_ring(&mut long_payload(0, LONG), 0);
        for stride in [1, 2] {
            for e in 1..=3 * n {
                let root = root(e, n, stride);
                if team.rank() == e % n {
                    delay(me);
                }
                let mut v = if team.rank() == root {
                    long_payload(e, LONG)
                } else {
                    vec![0; LONG]
                };
                team.co_broadcast_ring(&mut v, root);
                assert_eq!(
                    v,
                    long_payload(e, LONG),
                    "stride {stride} episode {e} at {me:?}"
                );
            }
        }
        team.barrier();
    });
}

#[test]
fn a_chunked_ring_of_three_or_five_delivers_to_slow_receivers_on_the_simulator() {
    for map in odd_rings() {
        let sim = sim_of(map, None);
        let f = sim.clone();
        slow_chunked(sim, move |me| f.compute(me, 40_000));
    }
}

#[test]
fn a_chunked_ring_of_three_or_five_delivers_to_slow_receivers_under_chaos() {
    for seed in [3, 11, 29] {
        let chaos = ChaosConfig {
            completion_delay_ns: 900,
            duplicate_completions: true,
            ..ChaosConfig::from_seed(seed)
        };
        for map in odd_rings() {
            let sim = sim_of(map, Some(chaos));
            let f = sim.clone();
            slow_chunked(sim, move |me| f.compute(me, 40_000));
        }
    }
}

#[test]
fn a_chunked_ring_of_three_or_five_delivers_to_slow_receivers_on_threads() {
    for map in odd_rings() {
        let threads = ThreadFabric::new(map, ThreadConfig::default());
        slow_chunked(threads, |_| std::thread::sleep(Duration::from_micros(300)));
    }
}

/// Three images, root 0 every time, image 1 — root 0's successor and image
/// 2's forwarder — 1 ms late at its first episode: root 0 streams all the
/// chunks of episodes 1 and 2 into free slots before image 1 has read one,
/// so image 1's arrival count holds two chunked episodes at once. It must
/// read and forward each from its own slot, chunk by chunk.
#[test]
fn two_chunked_episodes_share_one_arrival_count() {
    for chaos in [None, Some(ChaosConfig::from_seed(5))] {
        let sim = sim_of(
            ImageMap::new(presets::mini(3, 1), 3, &Placement::Packed),
            chaos,
        );
        let f = sim.clone();
        let seen = Arc::new(Mutex::new((0u64, 0u64)));
        let s = seen.clone();
        with_team(sim, config(BcastAlgo::FlatLinear), move |team, me| {
            team.co_broadcast_ring(&mut long_payload(0, LONG), 0);
            if me.index() == 1 {
                f.compute(me, 1_000_000);
                s.lock().unwrap().0 = f.now_ns(me);
            }
            for e in 1..=6 {
                let mut v = if me.index() == 0 {
                    long_payload(e, LONG)
                } else {
                    vec![0; LONG]
                };
                team.co_broadcast_ring(&mut v, 0);
                assert_eq!(v, long_payload(e, LONG), "episode {e} at {me:?}");
                if me.index() == 0 && e == 2 {
                    s.lock().unwrap().1 = f.now_ns(me);
                }
            }
            team.barrier();
        });
        let (late, sent) = *seen.lock().unwrap();
        assert!(
            sent < late,
            "root 0 finished episode 2 at {sent} ns, after image 1 woke at {late} ns"
        );
    }
}

/// `episodes` ring broadcasts of `len` elements from rotating roots on a
/// provisioned team of every image of `map` with `POLICY`, under
/// `overheads`: each delivers; returns (puts, flags, payload bytes) per
/// episode.
fn ring_traffic(map: ImageMap, overheads: SoftwareOverheads, len: usize) -> (u64, u64, u64) {
    let n = map.n_images();
    let config = SimConfig {
        overheads,
        ..SimConfig::default()
    };
    let sim = SimFabric::new(map, config);
    let members = (0..n).map(ProcId).collect();
    let team = Arc::new(Provisioned::new(
        &*sim,
        members,
        CollectiveConfig::two_level(),
        8 * LONG,
    ));
    let f = sim.clone();
    let episodes = 2 * n + 1;
    run_spmd(sim.clone(), move |me| {
        let mut comm = team.comm(f.clone(), me.index());
        comm.set_size_policy(POLICY);
        for e in 1..=episodes {
            let root = e % n;
            let mut v = if comm.rank() == root {
                long_payload(e, len)
            } else {
                vec![0; len]
            };
            comm.co_broadcast_ring(&mut v, root);
            assert_eq!(v, long_payload(e, len), "episode {e} at {me:?}");
        }
        drop(comm);
        f.image_done(me);
    });
    let s = sim.stats().snapshot();
    let e = episodes as u64;
    let per = |total: u64| {
        assert_eq!(total % e, 0, "{total} over {e} episodes");
        total / e
    };
    (
        per(s.puts_intra + s.puts_inter),
        per(s.flags_intra + s.flags_inter),
        per(s.bytes_intra + s.bytes_inter),
    )
}

/// On a provisioned team with `POLICY`, an episode of `len` elements costs
/// exactly hops × chunks signalled puts and hops × chunks + n flags (one
/// arrival per chunk, one credit per member), with the payload's bytes on
/// every hop — and a ring of two, which has no forwarder, sends one piece
/// whatever the chunk size.
#[test]
fn a_chunked_episode_costs_one_put_and_one_arrival_per_chunk_and_hop() {
    let maps = [
        ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed),
        ImageMap::new(presets::mini(3, 1), 3, &Placement::Packed),
        ImageMap::new(presets::mini(2, 2), 3, &Placement::Packed),
        ImageMap::new(presets::mini(3, 2), 5, &Placement::Packed),
        map(true),
    ];
    let per_chunk = POLICY.chunk_bytes / 8;
    for map in maps {
        for len in [1, 3 * per_chunk, LONG] {
            let n = map.n_images() as u64;
            let what = format!(
                "{n} images on {} nodes, {len} elements",
                map.machine().nodes
            );
            let chunks = if n == 2 {
                1
            } else {
                len.div_ceil(per_chunk) as u64
            };
            let hops = n - 1;
            assert_eq!(
                ring_traffic(map.clone(), SoftwareOverheads::NONE, len),
                (hops * chunks, hops * chunks + n, hops * 8 * len as u64),
                "(puts, flags, bytes) per episode: {what}"
            );
        }
    }
}

/// Where node-mates' messages go through the NIC (a NIC-loopback stack)
/// and a node hosts two images, the pieces of every hop on that node would
/// queue on its one NIC: the ring sends its payload whole. With one image
/// per node the same stack streams.
#[test]
fn a_ring_through_a_nic_shared_with_node_mates_sends_one_piece() {
    let stack = presets::stacks::UHCAF_FLAT;
    assert!(stack.intra_via_nic);
    let per_chunk = POLICY.chunk_bytes / 8;
    let chunks = LONG.div_ceil(per_chunk) as u64;
    let shared = ImageMap::new(presets::mini(2, 2), 4, &Placement::Packed);
    let own = ImageMap::new(presets::mini(4, 1), 4, &Placement::Packed);
    let bytes = 3 * 8 * LONG as u64;
    assert_eq!(ring_traffic(shared, stack, LONG), (3, 3 + 4, bytes));
    assert_eq!(
        ring_traffic(own, stack, LONG),
        (3 * chunks, 3 * chunks + 4, bytes)
    );
}
