//! Cumulative-flag-counter tests under *mixed* per-call algorithms: with
//! `Auto` and a tiny crossover, consecutive collectives on the same team
//! alternate between the latency-optimal and the pipelined/Rabenseifner
//! trees. Because broadcast/reduce waits use cumulative per-image flag
//! counters (never `episode × expected` thresholds), switching trees
//! mid-run must not desynchronize any image — every round must still
//! produce exact results, on hierarchical and flat shapes, under the
//! default schedule and under chaos schedules.

use caf_collectives::{BcastAlgo, CollectiveConfig, ReduceAlgo, SizePolicy, TeamComm};
use caf_fabric::{run_spmd, ArcFabric, ChaosConfig, SimConfig, SimFabric};
use caf_topology::{presets, HierarchyView, ImageMap, Placement, ProcId};

const ROUNDS: u64 = 6;
/// Large enough to clear the tiny crossover below and span several
/// pipeline chunks; small stays one element.
const BIG: usize = 192;

/// Crossovers far below the cost-model defaults so both sides of the
/// `Auto` split are exercised within one short run. 8-byte payloads stay
/// on the latency tree; `BIG * 8` bytes take the pipelined tree in
/// `BIG * 8 / 64 = 24` chunks.
fn tiny_policy() -> SizePolicy {
    SizePolicy {
        chunk_bytes: 64,
        crossover_bytes: 256,
    }
}

fn fabric(nodes: usize, cores: usize, images: usize, chaos: Option<ChaosConfig>) -> ArcFabric {
    let map = ImageMap::new(presets::mini(nodes, cores), images, &Placement::Packed);
    SimFabric::new(
        map,
        SimConfig {
            chaos,
            ..SimConfig::default()
        },
    )
}

/// Alternate small and large reductions and broadcasts for several rounds
/// on one team, asserting exact values every round. Any counter
/// desynchronization between the trees shows up as a wrong value or a
/// hang (caught by the sim's deadlock detector).
fn mixed_rounds(fabric: ArcFabric, images: usize) {
    let f2 = fabric.clone();
    run_spmd(fabric, move |me| {
        let mut boot = 0u64;
        let mut comm =
            TeamComm::create_initial(f2.clone(), me, CollectiveConfig::auto(), &mut boot);
        comm.set_size_policy(tiny_policy());
        let n = images as i64;
        for round in 0..ROUNDS as i64 {
            // Small reduce: latency tree.
            let mut small = vec![me.index() as i64 + round];
            comm.co_sum(&mut small);
            assert_eq!(small[0], n * (n - 1) / 2 + n * round, "round {round}");

            // Large reduce: pipelined / Rabenseifner tree on the same
            // flags the small reduce just bumped.
            let mut big: Vec<i64> = (0..BIG as i64).map(|k| k + me.index() as i64).collect();
            comm.co_sum(&mut big);
            for (k, v) in big.iter().enumerate() {
                assert_eq!(*v, n * k as i64 + n * (n - 1) / 2, "round {round} elem {k}");
            }

            // Small broadcast with a rotating root (0-based team rank).
            let root = (round as usize) % images;
            let mut one = vec![if me.index() == root { 77 + round } else { -1 }];
            comm.co_broadcast(&mut one, root);
            assert_eq!(one[0], 77 + round, "round {round}");

            // Large broadcast from the same root: pipelined tree.
            let mut wide: Vec<i64> = if me.index() == root {
                (0..BIG as i64).map(|k| k * 3 + round).collect()
            } else {
                vec![0; BIG]
            };
            comm.co_broadcast(&mut wide, root);
            for (k, v) in wide.iter().enumerate() {
                assert_eq!(*v, k as i64 * 3 + round, "round {round} elem {k}");
            }

            comm.barrier();
        }
        f2.image_done(me);
    });
}

#[test]
fn the_tiny_policy_really_splits_the_auto_trees() {
    // Pin the premise of this file: under `tiny_policy`, the small and
    // large payloads above resolve to *different* algorithms, so the
    // mixed-rounds test genuinely switches trees mid-run.
    let map = ImageMap::new(presets::mini(2, 4), 8, &Placement::Packed);
    let members: Vec<ProcId> = (0..8).map(ProcId).collect();
    let hier = HierarchyView::build(&map, &members);
    let p = tiny_policy();
    assert_eq!(
        BcastAlgo::Auto.resolve_sized(&hier, 8, &p),
        BcastAlgo::TwoLevel
    );
    assert_eq!(
        BcastAlgo::Auto.resolve_sized(&hier, BIG * 8, &p),
        BcastAlgo::TwoLevelPipelined
    );
    assert_eq!(
        ReduceAlgo::Auto.resolve_sized(&hier, 8, &p),
        ReduceAlgo::TwoLevel
    );
    assert_eq!(
        ReduceAlgo::Auto.resolve_sized(&hier, BIG * 8, &p),
        ReduceAlgo::TwoLevelPipelined
    );
    // On a flat team (one rank per node) the large side goes to
    // Rabenseifner instead.
    let flat_map = ImageMap::new(presets::mini(8, 1), 8, &Placement::Packed);
    let flat = HierarchyView::build(&flat_map, &members);
    assert_eq!(
        ReduceAlgo::Auto.resolve_sized(&flat, BIG * 8, &p),
        ReduceAlgo::Rabenseifner
    );
}

#[test]
fn auto_switching_trees_mid_run_keeps_counters_coherent_hierarchical() {
    mixed_rounds(fabric(2, 4, 8, None), 8);
}

#[test]
fn auto_switching_trees_mid_run_keeps_counters_coherent_flat() {
    // Flat shape (one rank per node): the large-reduce side is
    // Rabenseifner, which has the most intricate flag usage
    // (reduce-scatter + allgather phases).
    mixed_rounds(fabric(8, 1, 8, None), 8);
}

#[test]
fn mixed_auto_rounds_survive_chaos_schedules() {
    // The same mixed-size sequence under adversarial schedules: jitter
    // and reordering must never surface a counter desync (the collectives
    // are fully flag-synchronized, so chaos cannot change their results).
    for seed in [3, 17, 4242] {
        mixed_rounds(fabric(2, 4, 8, Some(ChaosConfig::from_seed(seed))), 8);
    }
}
