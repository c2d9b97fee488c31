//! # caf-collectives
//!
//! Team collectives for the `caf-rs` PGAS runtime — the core contribution
//! of Khaldi et al., *"A Team-Based Methodology of Memory Hierarchy-Aware
//! Runtime Support in Coarray Fortran"*.
//!
//! The paper's methodology (§IV-A) decomposes every collective along the
//! machine's memory hierarchy: detect each team's per-node *intranode
//! sets*, elect a *leader* per node, use a shared-memory-friendly algorithm
//! inside nodes and a distributed-memory-friendly algorithm among leaders.
//! This crate implements:
//!
//! * **Barriers** ([`config::BarrierAlgo`]): centralized linear counter,
//!   PGAS dissemination with the paper's one-wait accumulating
//!   `sync_flags`, the paper's **TDLB** (Team Dissemination Linear Barrier,
//!   Algorithm 1), and the §VII multi-level (socket-aware) extension.
//! * **All-to-all reductions** ([`config::ReduceAlgo`]): flat recursive
//!   doubling, flat binomial reduce+broadcast, the two-level scheme, a
//!   chunked **pipelined two-level** scheme for large payloads (intranode
//!   streaming fold overlapped with a Rabenseifner stage across leaders),
//!   and flat **Rabenseifner** (reduce-scatter + allgather).
//! * **Broadcasts** ([`config::BcastAlgo`]): linear, flat binomial, the
//!   two-level scheme, and a chunked **pipelined two-level** scheme that
//!   streams K-byte chunks down a pipelined binary tree of node leaders
//!   with nonblocking puts while each leader fans received chunks out
//!   through shared memory; and, called by name, a **ring** broadcast in
//!   rank order whose flow control is one credit per member per episode
//!   ([`TeamComm::co_broadcast_ring`]), for roots that advance in rank
//!   order.
//!
//! The tree collectives are **a shape plus one protocol**: `shape.rs` turns
//! the team's hierarchy into per-rank trees, barrier levels and the ring,
//! `bcast.rs` and `barrier.rs` each hold the one body that walks them — so
//! the algorithms above differ in the tree they name, not in code.
//!
//! `Auto` resolves per call by (hierarchy shape × message size): the
//! latency-optimal tree below the crossover, the pipelined/bandwidth
//! algorithms at or above it ([`config::SizePolicy`], derived from the
//! machine's cost model).
//!
//! All algorithms run over any [`caf_fabric::Fabric`] and operate on
//! [`TeamComm`] — the runtime structure behind the paper's `team_type`,
//! holding the team's image-index→process mapping, its hierarchy
//! decomposition, and its accumulating synchronization flags. They work on
//! arbitrary (sub)teams, which is the engineering point of the paper: team
//! collectives must respect hierarchy even when the team is an arbitrary
//! slice of the machine.

#![warn(missing_docs)]

mod barrier;
mod bcast;
pub mod comm;
pub mod config;
mod gather;
pub mod hosted;
mod reduce;
mod shape;
pub mod value;

pub use comm::{Provisioned, TeamComm};
pub use config::{BarrierAlgo, BcastAlgo, CollectiveConfig, GatherAlgo, ReduceAlgo, SizePolicy};
pub use value::{CoNumeric, CoOp, CoValue};

#[cfg(test)]
mod tests {
    use super::*;
    use caf_fabric::{run_spmd, ArcFabric, SimConfig, SimFabric, ThreadConfig, ThreadFabric};
    use caf_topology::{presets, ImageMap, Placement, ProcId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn sim_fabric(nodes: usize, cores: usize, images: usize, per_node: usize) -> ArcFabric {
        let map = ImageMap::new(
            presets::mini(nodes, cores),
            images,
            &Placement::Block { per_node },
        );
        SimFabric::new(map, SimConfig::default())
    }

    fn thread_fabric(nodes: usize, cores: usize, images: usize, per_node: usize) -> ArcFabric {
        let map = ImageMap::new(
            presets::mini(nodes, cores),
            images,
            &Placement::Block { per_node },
        );
        ThreadFabric::new(map, ThreadConfig::default())
    }

    /// Run `body(comm, me)` on every image with a fresh initial team.
    fn with_team(
        fabric: ArcFabric,
        cfg: CollectiveConfig,
        body: impl Fn(&mut TeamComm, ProcId) + Send + Sync + 'static,
    ) {
        let fabric2 = fabric.clone();
        run_spmd(fabric, move |me| {
            let mut boot = 0u64;
            let mut comm = TeamComm::create_initial(fabric2.clone(), me, cfg, &mut boot);
            body(&mut comm, me);
            fabric2.image_done(me);
        });
    }

    fn all_barrier_algos() -> Vec<BarrierAlgo> {
        vec![
            BarrierAlgo::CentralCounter,
            BarrierAlgo::BinomialTree,
            BarrierAlgo::Dissemination,
            BarrierAlgo::Tdlb,
            BarrierAlgo::TdlbMultilevel,
            BarrierAlgo::Auto,
        ]
    }

    /// A barrier is correct when no image exits episode `e` before every
    /// image entered episode `e`. We check with a shared counter: each
    /// image bumps it before the barrier and asserts it reads ≥ `n * e`
    /// afterwards (the classic barrier litmus test).
    fn check_barrier(fabric: ArcFabric, algo: BarrierAlgo, episodes: u64) {
        let n = fabric.n_images() as u64;
        let entered = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let cfg = CollectiveConfig {
            barrier: algo,
            ..CollectiveConfig::default()
        };
        let entered2 = entered.clone();
        with_team(fabric, cfg, move |comm, _me| {
            for e in 1..=episodes {
                entered2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                comm.barrier();
                let seen = entered2.load(std::sync::atomic::Ordering::SeqCst);
                assert!(
                    seen >= n * e,
                    "{algo:?}: exited episode {e} having seen only {seen}/{} entries",
                    n * e
                );
            }
        });
    }

    #[test]
    fn barriers_synchronize_on_sim_hierarchical() {
        for algo in all_barrier_algos() {
            check_barrier(sim_fabric(3, 4, 12, 4), algo, 5);
        }
    }

    #[test]
    fn barriers_synchronize_on_sim_flat() {
        for algo in all_barrier_algos() {
            check_barrier(sim_fabric(5, 1, 5, 1), algo, 4);
        }
    }

    #[test]
    fn barriers_synchronize_on_sim_single_node() {
        for algo in all_barrier_algos() {
            check_barrier(sim_fabric(1, 8, 8, 8), algo, 4);
        }
    }

    #[test]
    fn barriers_synchronize_on_sim_uneven_nodes() {
        // 7 images, 3 per node: nodes carry 3/3/1 — exercises degenerate
        // intranode sets inside TDLB.
        for algo in all_barrier_algos() {
            check_barrier(sim_fabric(3, 3, 7, 3), algo, 4);
        }
    }

    #[test]
    fn barriers_synchronize_on_threads() {
        for algo in all_barrier_algos() {
            check_barrier(thread_fabric(2, 4, 8, 4), algo, 50);
        }
    }

    #[test]
    fn barrier_two_images() {
        for algo in all_barrier_algos() {
            check_barrier(sim_fabric(2, 1, 2, 1), algo, 3);
        }
    }

    #[test]
    fn barrier_singleton_team_is_noop() {
        check_barrier(sim_fabric(1, 1, 1, 1), BarrierAlgo::Auto, 3);
    }

    fn all_reduce_algos() -> Vec<ReduceAlgo> {
        vec![
            ReduceAlgo::FlatRecursiveDoubling,
            ReduceAlgo::FlatBinomial,
            ReduceAlgo::TwoLevel,
            ReduceAlgo::TwoLevelPipelined,
            ReduceAlgo::Rabenseifner,
            ReduceAlgo::Auto,
        ]
    }

    fn check_allreduce_sum(fabric: ArcFabric, algo: ReduceAlgo, episodes: u64) {
        let n = fabric.n_images() as u64;
        let cfg = CollectiveConfig {
            reduce: algo,
            ..CollectiveConfig::default()
        };
        with_team(fabric, cfg, move |comm, me| {
            for e in 1..=episodes {
                // Distinct per-image vectors so wrong routing is caught.
                let mut v = vec![
                    (me.index() as u64 + 1) * e,
                    me.index() as u64 * me.index() as u64,
                    1u64,
                ];
                let expect0: u64 = (1..=n).map(|i| i * e).sum();
                let expect1: u64 = (0..n).map(|i| i * i).sum();
                comm.co_sum(&mut v);
                assert_eq!(v, vec![expect0, expect1, n], "{algo:?} episode {e}");
            }
        });
    }

    #[test]
    fn allreduce_sum_sim_hierarchical() {
        for algo in all_reduce_algos() {
            check_allreduce_sum(sim_fabric(3, 4, 12, 4), algo, 4);
        }
    }

    #[test]
    fn allreduce_sum_sim_nonpow2_flat() {
        // 6 nodes, 1 image each: exercises the fold-in/fold-out path.
        for algo in all_reduce_algos() {
            check_allreduce_sum(sim_fabric(6, 1, 6, 1), algo, 4);
        }
    }

    #[test]
    fn allreduce_sum_sim_nonpow2_leaders() {
        // 5 nodes × 3 images: 5 leaders (non-power-of-two) in stage 2.
        for algo in all_reduce_algos() {
            check_allreduce_sum(sim_fabric(5, 3, 15, 3), algo, 3);
        }
    }

    #[test]
    fn allreduce_sum_threads() {
        for algo in all_reduce_algos() {
            check_allreduce_sum(thread_fabric(2, 4, 8, 4), algo, 25);
        }
    }

    #[test]
    fn allreduce_min_max_float() {
        with_team(
            sim_fabric(2, 4, 8, 4),
            CollectiveConfig::two_level(),
            |comm, me| {
                let mut v = vec![me.index() as f64 - 3.5];
                comm.co_max(&mut v);
                assert_eq!(v[0], 3.5);
                let mut v = vec![me.index() as f64 - 3.5];
                comm.co_min(&mut v);
                assert_eq!(v[0], -3.5);
            },
        );
    }

    #[test]
    fn co_reduce_with_maxloc() {
        // The HPL pivot pattern: (|value|, index) with max-by-value —
        // a user-defined commutative op over a tuple element.
        with_team(
            sim_fabric(2, 4, 8, 4),
            CollectiveConfig::two_level(),
            |comm, me| {
                let val = ((me.index() * 7 + 3) % 11) as f64; // max 10.0 at image 1
                let mut v = vec![(val, me.index() as u64)];
                comm.co_reduce_with(&mut v, |a, b| if a.0 >= b.0 { a } else { b });
                assert_eq!(v[0], (10.0, 1));
            },
        );
    }

    #[test]
    fn reduce_growing_buffers_reuse_team() {
        // Scratch must grow collectively when element counts increase.
        with_team(
            sim_fabric(2, 2, 4, 2),
            CollectiveConfig::two_level(),
            |comm, me| {
                for len in [1usize, 8, 64, 256] {
                    let mut v = vec![1u64; len];
                    comm.co_sum(&mut v);
                    assert!(v.iter().all(|&x| x == 4), "len {len}");
                    let _ = me;
                }
            },
        );
    }

    fn all_bcast_algos() -> Vec<BcastAlgo> {
        vec![
            BcastAlgo::FlatLinear,
            BcastAlgo::FlatBinomial,
            BcastAlgo::TwoLevel,
            BcastAlgo::TwoLevelPipelined,
            BcastAlgo::Auto,
        ]
    }

    fn check_broadcast(fabric: ArcFabric, algo: BcastAlgo, episodes: usize) {
        let n = fabric.n_images();
        let cfg = CollectiveConfig {
            bcast: algo,
            ..CollectiveConfig::default()
        };
        with_team(fabric, cfg, move |comm, me| {
            for e in 0..episodes {
                let root = (e * 3 + 1) % n; // rotate roots
                let payload = ((e as u64) << 32) | root as u64;
                let mut v = if comm.rank() == root {
                    vec![payload, payload + 1]
                } else {
                    vec![0, 0]
                };
                comm.co_broadcast(&mut v, root);
                assert_eq!(
                    v,
                    vec![payload, payload + 1],
                    "{algo:?} episode {e} root {root} at image {me:?}"
                );
            }
        });
    }

    #[test]
    fn broadcast_sim_hierarchical() {
        for algo in all_bcast_algos() {
            check_broadcast(sim_fabric(3, 4, 12, 4), algo, 6);
        }
    }

    #[test]
    fn broadcast_sim_flat() {
        for algo in all_bcast_algos() {
            check_broadcast(sim_fabric(7, 1, 7, 1), algo, 5);
        }
    }

    #[test]
    fn broadcast_threads_rotating_roots() {
        for algo in all_bcast_algos() {
            check_broadcast(thread_fabric(2, 4, 8, 4), algo, 24);
        }
    }

    #[test]
    fn subteams_split_and_collect_independently() {
        // 12 images on 3 nodes split into even/odd teams; each subteam
        // reduces independently; then the parent team still works.
        let fabric = sim_fabric(3, 4, 12, 4);
        with_team(fabric, CollectiveConfig::auto(), |comm, me| {
            let color = (me.index() % 2) as i64;
            let mut sub = comm.create_sub(color, None, None);
            assert_eq!(sub.size(), 6);
            let mut v = vec![me.index() as u64];
            sub.co_sum(&mut v);
            let expect: u64 = (0..12u64).filter(|i| i % 2 == color as u64).sum();
            assert_eq!(v[0], expect);
            sub.barrier();
            // Parent still functional after subteam traffic.
            let mut w = vec![1u64];
            comm.co_sum(&mut w);
            assert_eq!(w[0], 12);
        });
    }

    #[test]
    fn nested_subteams_two_levels_deep() {
        let fabric = sim_fabric(2, 4, 8, 4);
        with_team(fabric, CollectiveConfig::auto(), |comm, me| {
            let half = (me.index() / 4) as i64;
            let mut sub = comm.create_sub(half, None, None);
            assert_eq!(sub.size(), 4);
            let quarter = ((me.index() % 4) / 2) as i64;
            let mut subsub = sub.create_sub(quarter, None, None);
            assert_eq!(subsub.size(), 2);
            let mut v = vec![1u64];
            subsub.co_sum(&mut v);
            assert_eq!(v[0], 2);
            subsub.barrier();
            sub.barrier();
            comm.barrier();
        });
    }

    #[test]
    fn form_team_with_new_index_reorders() {
        let fabric = sim_fabric(2, 2, 4, 2);
        with_team(fabric, CollectiveConfig::auto(), |comm, me| {
            // Single team, ranks reversed via new_index.
            let idx = comm.size() - comm.rank(); // 4,3,2,1 for ranks 0..3
            let sub = comm.create_sub(1, Some(idx), None);
            assert_eq!(sub.rank(), comm.size() - 1 - comm.rank());
            assert_eq!(sub.proc_of(sub.rank()), me);
        });
    }

    #[test]
    fn row_and_column_teams_like_hpl() {
        // 2x2 grid on 4 images: row teams {0,1},{2,3}; col teams {0,2},{1,3}.
        let fabric = sim_fabric(2, 2, 4, 2);
        with_team(fabric, CollectiveConfig::auto(), |comm, me| {
            let row = (me.index() / 2) as i64;
            let col = (me.index() % 2) as i64;
            let mut row_team = comm.create_sub(row, None, None);
            let mut col_team = comm.create_sub(col, None, None);
            let mut v = vec![me.index() as u64 + 1];
            row_team.co_sum(&mut v);
            let row_expect = if me.index() < 2 { 1 + 2 } else { 3 + 4 };
            assert_eq!(v[0], row_expect);
            let mut w = vec![me.index() as u64 + 1];
            col_team.co_max(&mut w);
            let col_expect = if me.index() % 2 == 0 { 3 } else { 4 };
            assert_eq!(w[0], col_expect);
        });
    }

    #[test]
    fn allgather4_exchanges_ranked_values() {
        let fabric = sim_fabric(2, 2, 4, 2);
        with_team(fabric, CollectiveConfig::auto(), |comm, _me| {
            let r = comm.rank() as u64;
            let got = comm.allgather4([r, r * 10, 0, 7]);
            comm.control_barrier();
            for (j, v) in got.iter().enumerate() {
                assert_eq!(v[0], j as u64);
                assert_eq!(v[1], j as u64 * 10);
                assert_eq!(v[3], 7);
            }
        });
    }

    /// Formation of a team without a parent is one bootstrap barrier whose
    /// slots carry the id agreement: each member puts its words to the
    /// leader, the leader puts the answer back — 2·(n − 1) puts and the
    /// barrier's 2·(n − 1) notifications, not a put from every member to
    /// every member.
    #[test]
    fn initial_formation_is_one_barrier_of_two_puts_per_member() {
        let fabric = sim_fabric(8, 8, 64, 8);
        let f2 = fabric.clone();
        with_team(fabric, CollectiveConfig::auto(), |_, _| {});
        let s = f2.stats().snapshot();
        let n = 64;
        assert!(s.puts_intra + s.puts_inter <= 2 * (n - 1), "{s:?}");
        assert_eq!(s.flags_intra + s.flags_inter, 2 * (n - 1), "{s:?}");
    }

    /// A gather region fits its payload to the cache line: a two-level
    /// gather of 4 104 B per member forwards a node's block across nodes
    /// at 4 160 B per member, not at the next power of two (8 192).
    #[test]
    fn a_two_level_gather_forwards_no_padding_between_nodes() {
        let inter_bytes = |episodes: usize| {
            let fabric = sim_fabric(2, 4, 8, 4);
            let f2 = fabric.clone();
            let cfg = CollectiveConfig {
                gather: GatherAlgo::TwoLevel,
                ..CollectiveConfig::default()
            };
            with_team(fabric, cfg, move |comm, me| {
                let mine = vec![me.index() as u64; 4104 / 8];
                for _ in 0..episodes {
                    comm.co_gather(&mine, 0);
                }
            });
            f2.stats().snapshot().bytes_inter
        };
        // The second gather minus the first: the region grew in both runs.
        let per_gather = inter_bytes(2) - inter_bytes(1);
        let set_len = 4;
        assert!(per_gather >= set_len * 4104, "{per_gather} B");
        assert!(per_gather <= set_len * 4160, "{per_gather} B");
    }

    /// Total notifications of a fresh deterministic run with `episodes`
    /// barriers: the per-episode count is the difference of two runs —
    /// exact, because the simulator is deterministic (no wall-clock
    /// snapshot windows).
    fn barrier_traffic(
        nodes: usize,
        cores: usize,
        images: usize,
        per_node: usize,
        algo: BarrierAlgo,
        episodes: usize,
    ) -> (u64, u64) {
        let fabric = sim_fabric(nodes, cores, images, per_node);
        let cfg = CollectiveConfig {
            barrier: algo,
            ..CollectiveConfig::default()
        };
        let f2 = fabric.clone();
        with_team(fabric, cfg, move |comm, _me| {
            for _ in 0..episodes {
                comm.barrier();
            }
        });
        let snap = f2.stats().snapshot();
        (snap.flags_intra, snap.flags_inter)
    }

    fn per_episode(
        nodes: usize,
        cores: usize,
        images: usize,
        per_node: usize,
        algo: BarrierAlgo,
    ) -> (u64, u64) {
        let (i1, e1) = barrier_traffic(nodes, cores, images, per_node, algo, 2);
        let (i2, e2) = barrier_traffic(nodes, cores, images, per_node, algo, 6);
        ((i2 - i1) / 4, (e2 - e1) / 4)
    }

    #[test]
    fn dissemination_message_count_matches_closed_form() {
        // Pure dissemination must generate exactly n * ceil(log2 n)
        // notifications per episode — the §IV-A accounting.
        let (intra, inter) = per_episode(8, 1, 8, 1, BarrierAlgo::Dissemination);
        assert_eq!(intra + inter, 8 * 3, "n log n notifications");
        assert_eq!(intra, 0, "one image per node: all traffic crosses nodes");
    }

    #[test]
    fn tdlb_sends_fewer_internode_messages_than_dissemination() {
        let (_, dissem) = per_episode(4, 8, 32, 8, BarrierAlgo::Dissemination);
        let (tdlb_intra, tdlb_inter) = per_episode(4, 8, 32, 8, BarrierAlgo::Tdlb);
        // TDLB: only the 4 leaders disseminate across nodes: 4*2 = 8;
        // the 2(n-L) gather/release notifications stay on-node.
        assert_eq!(tdlb_inter, 8);
        assert_eq!(tdlb_intra, 2 * (32 - 4));
        assert!(
            dissem >= 3 * tdlb_inter,
            "dissemination {dissem} should dwarf TDLB {tdlb_inter}"
        );
    }

    /// A size policy with a tiny chunk so small test payloads still split
    /// into many pipeline chunks.
    fn tiny_chunks() -> SizePolicy {
        SizePolicy {
            chunk_bytes: 16, // 2 u64 elements per chunk
            crossover_bytes: 0,
        }
    }

    #[test]
    fn pipelined_broadcast_multi_chunk_rotating_roots() {
        // 37 elements over 2-element chunks: 19 chunks, the last one short.
        for fabric in [sim_fabric(3, 4, 12, 4), thread_fabric(2, 4, 8, 4)] {
            let n = fabric.n_images();
            let cfg = CollectiveConfig {
                bcast: BcastAlgo::TwoLevelPipelined,
                ..CollectiveConfig::default()
            };
            with_team(fabric, cfg, move |comm, me| {
                comm.set_size_policy(tiny_chunks());
                for e in 0..6usize {
                    let root = (e * 5 + 2) % n;
                    let len = [37, 1, 2, 40][e % 4];
                    let make = |i: usize| ((e as u64) << 32) | ((i as u64) << 8) | root as u64;
                    let mut v: Vec<u64> = if comm.rank() == root {
                        (0..len).map(make).collect()
                    } else {
                        vec![0; len]
                    };
                    comm.co_broadcast(&mut v, root);
                    let expect: Vec<u64> = (0..len).map(make).collect();
                    assert_eq!(v, expect, "episode {e} root {root} at image {me:?}");
                }
            });
        }
    }

    #[test]
    fn pipelined_reduce_multi_chunk() {
        for fabric in [sim_fabric(3, 4, 12, 4), thread_fabric(2, 4, 8, 4)] {
            let n = fabric.n_images() as u64;
            let cfg = CollectiveConfig {
                reduce: ReduceAlgo::TwoLevelPipelined,
                ..CollectiveConfig::default()
            };
            with_team(fabric, cfg, move |comm, me| {
                comm.set_size_policy(tiny_chunks());
                for len in [1usize, 5, 37, 64] {
                    let mut v: Vec<u64> = (0..len).map(|i| me.index() as u64 + i as u64).collect();
                    comm.co_sum(&mut v);
                    for (i, &x) in v.iter().enumerate() {
                        let expect: u64 = (0..n).map(|r| r + i as u64).sum();
                        assert_eq!(x, expect, "len {len} elem {i}");
                    }
                }
            });
        }
    }

    #[test]
    fn mixed_algorithms_across_calls_stay_in_sync() {
        // The cumulative-counter discipline must survive interleaving every
        // algorithm on the same team (same accumulating flags).
        with_team(
            sim_fabric(3, 4, 12, 4),
            CollectiveConfig::default(),
            |comm, me| {
                comm.set_size_policy(SizePolicy {
                    chunk_bytes: 16,
                    crossover_bytes: 64,
                });
                let n = comm.size() as u64;
                for e in 0..4usize {
                    // Small payload (latency path), then large (pipelined).
                    for len in [2usize, 33] {
                        let mut v = vec![1u64; len];
                        comm.co_sum(&mut v);
                        assert!(v.iter().all(|&x| x == n), "episode {e} len {len}");
                        let root = (e + len) % comm.size();
                        let mut w = if comm.rank() == root {
                            vec![7u64; len]
                        } else {
                            vec![0u64; len]
                        };
                        comm.co_broadcast(&mut w, root);
                        assert!(w.iter().all(|&x| x == 7), "episode {e} len {len}");
                    }
                }
                let _ = me;
            },
        );
    }

    /// Per-level chunk accounting for the pipelined two-level broadcast on
    /// 3 nodes × 4 images: whatever the leader topology, each chunk must
    /// cross the network exactly `l−1` times (once per non-root leader),
    /// and each of the 3 effective leaders fans each chunk out to its 3
    /// local members over the node bus.
    #[test]
    fn pipelined_bcast_chunk_counts_per_level() {
        let traffic = |episodes: usize| -> (u64, u64, u64, u64) {
            let fabric = sim_fabric(3, 4, 12, 4);
            let cfg = CollectiveConfig {
                bcast: BcastAlgo::TwoLevelPipelined,
                ..CollectiveConfig::default()
            };
            let f2 = fabric.clone();
            with_team(fabric, cfg, move |comm, _me| {
                comm.set_size_policy(tiny_chunks());
                for e in 0..episodes {
                    let root = e % comm.size();
                    let mut v = vec![1u64; 8]; // 4 chunks of 2 elements
                    comm.co_broadcast(&mut v, root);
                }
            });
            let s = f2.stats().snapshot();
            (
                s.puts_intra,
                s.puts_inter,
                s.puts_nb_injected,
                s.puts_nb_completed,
            )
        };
        let (i1, x1, nb1, _) = traffic(1);
        let (i3, x3, nb3, done3) = traffic(3);
        let per_ep_intra = (i3 - i1) / 2;
        let per_ep_inter = (x3 - x1) / 2;
        let per_ep_nb = (nb3 - nb1) / 2;
        // 4 chunks × (3−1) non-root leaders cross the network.
        assert_eq!(per_ep_inter, 4 * 2, "inter-node chunk hops per episode");
        // 4 chunks × 9 local members ride the node buses.
        assert_eq!(per_ep_intra, 4 * 9, "intranode fan-out per episode");
        // Every data move of the episode was a nonblocking put...
        assert_eq!(per_ep_nb, per_ep_intra + per_ep_inter);
        // ...and none is still in flight once the run drained.
        assert_eq!(nb3, done3, "all injected puts completed");
    }

    #[test]
    fn sim_pipelined_collective_times_deterministic() {
        let run = || {
            let fabric = sim_fabric(3, 4, 12, 4);
            let f2 = fabric.clone();
            let times = Arc::new(Mutex::new(vec![0u64; 12]));
            let t2 = times.clone();
            let cfg = CollectiveConfig {
                bcast: BcastAlgo::TwoLevelPipelined,
                reduce: ReduceAlgo::TwoLevelPipelined,
                ..CollectiveConfig::default()
            };
            with_team(fabric, cfg, move |comm, me| {
                comm.set_size_policy(tiny_chunks());
                for e in 0..3usize {
                    let mut v = vec![me.index() as u64; 21];
                    comm.co_sum(&mut v);
                    let mut w = vec![e as u64; 13];
                    comm.co_broadcast(&mut w, e % comm.size());
                }
                t2.lock()[me.index()] = f2.now_ns(me);
            });
            let v = times.lock().clone();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sim_barrier_virtual_times_deterministic() {
        let run = || {
            let fabric = sim_fabric(4, 8, 32, 8);
            let f2 = fabric.clone();
            let times = Arc::new(Mutex::new(vec![0u64; 32]));
            let t2 = times.clone();
            with_team(fabric, CollectiveConfig::two_level(), move |comm, me| {
                for _ in 0..3 {
                    comm.barrier();
                }
                t2.lock()[me.index()] = f2.now_ns(me);
            });
            let v = times.lock().clone();
            v
        };
        assert_eq!(run(), run());
    }
}
