//! Property tests of the collective algorithms: every barrier/reduction/
//! broadcast algorithm must be correct for arbitrary machine shapes, team
//! sizes, payloads, and operations — the algorithms may only differ in
//! cost, never in result.

use caf_collectives::{BarrierAlgo, BcastAlgo, CollectiveConfig, ReduceAlgo, TeamComm};
use caf_fabric::{run_spmd, ArcFabric, SimConfig, SimFabric};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

fn fabric(nodes: usize, cores: usize, images: usize) -> ArcFabric {
    let map = ImageMap::new(presets::mini(nodes, cores), images, &Placement::Packed);
    SimFabric::new(map, SimConfig::default())
}

fn with_team(
    fabric: ArcFabric,
    cfg: CollectiveConfig,
    body: impl Fn(&mut TeamComm, ProcId) + Send + Sync + 'static,
) {
    let f2 = fabric.clone();
    run_spmd(fabric, move |me| {
        let mut boot = 0u64;
        let mut comm = TeamComm::create_initial(f2.clone(), me, cfg, &mut boot);
        body(&mut comm, me);
        f2.image_done(me);
    });
}

fn shape_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    // (nodes, cores, images) with 2..=10 images on up to 3 nodes; at least
    // two cores total so two images always fit.
    (1usize..4, 2usize..5).prop_flat_map(|(nodes, cores)| {
        let cap = (nodes * cores).min(10);
        (Just(nodes), Just(cores), 2..=cap)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_reduce_algorithms_agree_with_serial_fold(
        (nodes, cores, images) in shape_strategy(),
        values in proptest::collection::vec(-10_000i64..10_000, 10),
        op_pick in 0usize..3,
    ) {
        let algos = [
            ReduceAlgo::FlatRecursiveDoubling,
            ReduceAlgo::FlatBinomial,
            ReduceAlgo::TwoLevel,
            ReduceAlgo::TwoLevelPipelined,
            ReduceAlgo::Rabenseifner,
        ];
        for algo in algos {
            let cfg = CollectiveConfig { reduce: algo, ..CollectiveConfig::default() };
            let vals = Arc::new(values.clone());
            let v2 = vals.clone();
            let expect: i64 = {
                let contribs = (0..images).map(|i| v2[i % v2.len()]);
                match op_pick {
                    0 => contribs.sum(),
                    1 => contribs.min().unwrap(),
                    _ => contribs.max().unwrap(),
                }
            };
            let vals3 = vals.clone();
            with_team(fabric(nodes, cores, images), cfg, move |comm, me| {
                let mut buf = vec![vals3[me.index() % vals3.len()]];
                match op_pick {
                    0 => comm.co_sum(&mut buf),
                    1 => comm.co_min(&mut buf),
                    _ => comm.co_max(&mut buf),
                }
                assert_eq!(buf[0], expect, "{algo:?}");
            });
        }
    }

    #[test]
    fn all_broadcast_algorithms_deliver_any_root_any_payload(
        (nodes, cores, images) in shape_strategy(),
        root_pick in 0usize..16,
        payload in proptest::collection::vec(any::<i64>(), 1..9),
    ) {
        let root = root_pick % images;
        for algo in [
            BcastAlgo::FlatLinear,
            BcastAlgo::FlatBinomial,
            BcastAlgo::TwoLevel,
            BcastAlgo::TwoLevelPipelined,
        ] {
            let cfg = CollectiveConfig { bcast: algo, ..CollectiveConfig::default() };
            let p = Arc::new(payload.clone());
            let p2 = p.clone();
            with_team(fabric(nodes, cores, images), cfg, move |comm, _me| {
                let mut buf = if comm.rank() == root {
                    p2.to_vec()
                } else {
                    vec![0i64; p2.len()]
                };
                comm.co_broadcast(&mut buf, root);
                assert_eq!(&buf, &*p2, "{algo:?} root {root}");
            });
        }
    }

    #[test]
    fn pipelined_collectives_agree_with_reference_for_any_chunking(
        (nodes, cores, images) in shape_strategy(),
        chunk_elems in 1usize..5,
        len in 1usize..23,
        root_pick in 0usize..16,
        seed in any::<u64>(),
    ) {
        // Chunk boundaries must be invisible: for any chunk size (in
        // elements, converted to bytes below) and any payload length —
        // including lengths that are not a chunk multiple — the pipelined
        // paths must produce exactly what the scalar reference computes.
        let root = root_pick % images;
        let policy = caf_collectives::SizePolicy {
            chunk_bytes: chunk_elems * 8,
            crossover_bytes: 0,
        };
        let cfg = CollectiveConfig {
            reduce: ReduceAlgo::TwoLevelPipelined,
            bcast: BcastAlgo::TwoLevelPipelined,
            ..CollectiveConfig::default()
        };
        with_team(fabric(nodes, cores, images), cfg, move |comm, me| {
            comm.set_size_policy(policy);
            let mut buf: Vec<u64> = (0..len)
                .map(|i| (seed ^ ((me.index() as u64) << 8) ^ i as u64) % 1000)
                .collect();
            let mine = buf.clone();
            comm.co_sum(&mut buf);
            for (i, &x) in buf.iter().enumerate() {
                let expect: u64 = (0..images)
                    .map(|r| (seed ^ ((r as u64) << 8) ^ i as u64) % 1000)
                    .sum();
                assert_eq!(x, expect, "co_sum elem {i} of {len}, chunk {chunk_elems}");
            }
            let mut b = if comm.rank() == root { mine } else { vec![0; len] };
            comm.co_broadcast(&mut b, root);
            for (i, &x) in b.iter().enumerate() {
                let expect = (seed ^ ((root as u64) << 8) ^ i as u64) % 1000;
                assert_eq!(x, expect, "co_broadcast elem {i} of {len}, chunk {chunk_elems}");
            }
        });
    }

    #[test]
    fn all_barrier_algorithms_cost_positive_and_agree_on_episodes(
        (nodes, cores, images) in shape_strategy(),
        episodes in 1u64..6,
    ) {
        for algo in [
            BarrierAlgo::CentralCounter,
            BarrierAlgo::BinomialTree,
            BarrierAlgo::Dissemination,
            BarrierAlgo::Tdlb,
            BarrierAlgo::TdlbMultilevel,
        ] {
            let cfg = CollectiveConfig { barrier: algo, ..CollectiveConfig::default() };
            let counter = Arc::new(Mutex::new(0u64));
            let c2 = counter.clone();
            with_team(fabric(nodes, cores, images), cfg, move |comm, _me| {
                for e in 1..=episodes {
                    {
                        *c2.lock() += 1;
                    }
                    comm.barrier();
                    let seen = *c2.lock();
                    assert!(seen >= images as u64 * e, "{algo:?} episode {e}");
                }
            });
            prop_assert_eq!(*counter.lock(), images as u64 * episodes);
        }
    }

    #[test]
    fn subteam_reductions_respect_arbitrary_colorings(
        (nodes, cores, images) in shape_strategy(),
        colors in proptest::collection::vec(0i64..3, 10),
    ) {
        let colors = Arc::new(colors);
        let c2 = colors.clone();
        let c3 = colors.clone();
        with_team(
            fabric(nodes, cores, images),
            CollectiveConfig::auto(),
            move |comm, me| {
                let my_color = c2[me.index() % c2.len()];
                let mut sub = comm.create_sub(my_color, None, None);
                let mut v = vec![me.index() as u64];
                sub.co_sum(&mut v);
                let expect: u64 = (0..images)
                    .filter(|&i| c2[i % c2.len()] == my_color)
                    .map(|i| i as u64)
                    .sum();
                assert_eq!(v[0], expect);
            },
        );
        let _ = c3;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn gather_and_scatter_roundtrip_any_shape_any_root(
        (nodes, cores, images) in shape_strategy(),
        root_pick in 0usize..16,
        len in 1usize..6,
    ) {
        let root = root_pick % images;
        for algo in [caf_collectives::GatherAlgo::FlatLinear, caf_collectives::GatherAlgo::TwoLevel] {
            let cfg = CollectiveConfig { gather: algo, ..CollectiveConfig::default() };
            with_team(fabric(nodes, cores, images), cfg, move |comm, me| {
                // Gather distinct per-rank data to the root.
                let mine: Vec<u64> = (0..len)
                    .map(|i| (comm.rank() as u64) << 16 | i as u64)
                    .collect();
                let gathered = comm.co_gather(&mine, root);
                if comm.rank() == root {
                    let g = gathered.expect("root gets the data");
                    for r in 0..images {
                        for i in 0..len {
                            assert_eq!(
                                g[r * len + i],
                                (r as u64) << 16 | i as u64,
                                "{algo:?} root {root} rank {r} elem {i}"
                            );
                        }
                    }
                } else {
                    assert!(gathered.is_none());
                }
                // Scatter it back: everyone must recover their own slice.
                let all: Option<Vec<u64>> = if comm.rank() == root {
                    Some((0..images).flat_map(|r| (0..len).map(move |i| (r as u64) * 1000 + i as u64)).collect())
                } else {
                    None
                };
                let mut out = vec![0u64; len];
                comm.co_scatter(all.as_deref(), &mut out, root);
                for (i, v) in out.iter().enumerate() {
                    assert_eq!(*v, (comm.rank() as u64) * 1000 + i as u64, "{algo:?}");
                }
                let _ = me;
            });
        }
    }

    #[test]
    fn gather_with_rotating_roots_many_eras(
        (nodes, cores, images) in shape_strategy(),
        eras in 2usize..7,
    ) {
        with_team(
            fabric(nodes, cores, images),
            CollectiveConfig::two_level(),
            move |comm, _me| {
                for e in 0..eras {
                    let root = (e * 5 + 1) % images;
                    let mine = vec![(comm.rank() * 10 + e) as u64];
                    let g = comm.co_gather(&mine, root);
                    if comm.rank() == root {
                        let g = g.expect("root");
                        for (r, v) in g.iter().enumerate().take(images) {
                            assert_eq!(*v, (r * 10 + e) as u64, "era {e}");
                        }
                    }
                }
            },
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn alltoall_is_a_transpose(
        (nodes, cores, images) in shape_strategy(),
        len in 1usize..5,
        eras in 1usize..4,
    ) {
        with_team(
            fabric(nodes, cores, images),
            CollectiveConfig::auto(),
            move |comm, _me| {
                let n = comm.size();
                let my = comm.rank() as u64;
                for e in 0..eras {
                    // send[j*len + i] encodes (from, to, era, i).
                    let send: Vec<u64> = (0..n)
                        .flat_map(|j| {
                            (0..len).map(move |i| {
                                (my << 32) | ((j as u64) << 16) | ((e as u64) << 8) | i as u64
                            })
                        })
                        .collect();
                    let recv = comm.co_alltoall(&send, len);
                    for r in 0..n {
                        for i in 0..len {
                            let expect = ((r as u64) << 32)
                                | ((comm.rank() as u64) << 16)
                                | ((e as u64) << 8)
                                | i as u64;
                            assert_eq!(recv[r * len + i], expect, "era {e} from {r} elem {i}");
                        }
                    }
                }
            },
        );
    }

    #[test]
    fn alltoall_twice_is_identity_on_symmetric_data(
        (nodes, cores, images) in shape_strategy(),
        seed in any::<u64>(),
    ) {
        with_team(
            fabric(nodes, cores, images),
            CollectiveConfig::auto(),
            move |comm, _me| {
                let n = comm.size();
                let my = comm.rank() as u64;
                let mine: Vec<u64> = (0..n).map(|j| seed ^ (my << 8) ^ j as u64).collect();
                let once = comm.co_alltoall(&mine, 1);
                let twice = comm.co_alltoall(&once, 1);
                // alltoall is the global transpose (r,j) -> (j,r): applying
                // it twice is the identity, and one application exposes the
                // peers' encodings.
                for (j, &got) in once.iter().enumerate() {
                    assert_eq!(got, seed ^ ((j as u64) << 8) ^ my);
                }
                assert_eq!(twice, mine, "transpose twice = identity");
            },
        );
    }
}
