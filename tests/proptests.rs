//! Property-based tests over the whole stack: placement/hierarchy algebra,
//! collective correctness against serial oracles for arbitrary team
//! splits, and LU against arbitrary well-conditioned systems.
//!
//! SPMD cases are kept small (≤ 12 images) and the proptest case counts
//! modest — each case spins up a simulated cluster.

use caf::runtime::{run, RunConfig};
use caf::topology::tree::{binomial_children, binomial_parent, ceil_log2, floor_pow2};
use caf::topology::{presets, HierarchyView, ImageMap, MachineModel, Placement, ProcId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn placement_is_injective_and_in_bounds(
        nodes in 1usize..10,
        cores in 1usize..9,
        frac in 1usize..=100,
        cyclic in any::<bool>(),
    ) {
        let machine = MachineModel::new("pt", nodes, 1, cores);
        let total = machine.total_cores();
        let images = (total * frac).div_ceil(100).clamp(1, total);
        let placement = if cyclic { Placement::Cyclic } else { Placement::Packed };
        let map = ImageMap::new(machine, images, &placement);
        let mut seen = std::collections::HashSet::new();
        for i in 0..images {
            let loc = map.location(ProcId(i));
            prop_assert!(loc.node.index() < nodes);
            prop_assert!(seen.insert((loc.node, loc.core)), "two images on one core");
        }
        let on_nodes: usize = (0..nodes)
            .map(|nd| map.images_on_node(caf::topology::NodeId(nd)).len())
            .sum();
        prop_assert_eq!(on_nodes, images);
    }

    #[test]
    fn hierarchy_partitions_any_member_subset(
        nodes in 1usize..6,
        cores in 1usize..6,
        selector in proptest::collection::vec(any::<bool>(), 1..30),
    ) {
        let machine = MachineModel::new("pt", nodes, 1, cores);
        let total = machine.total_cores();
        let map = ImageMap::new(machine, total, &Placement::Packed);
        let members: Vec<ProcId> = selector
            .iter()
            .enumerate()
            .take(total)
            .filter(|(_, &b)| b)
            .map(|(i, _)| ProcId(i))
            .collect();
        prop_assume!(!members.is_empty());
        let h = HierarchyView::build(&map, &members);
        // Every rank in exactly one set; leaders are set minima.
        let mut counted = 0;
        for set in h.sets() {
            counted += set.len();
            prop_assert_eq!(set.leader, set.ranks[0]);
            for &r in &set.ranks {
                prop_assert_eq!(h.leader_of(r), set.leader);
                prop_assert_eq!(map.node_of(members[r]), set.node);
            }
        }
        prop_assert_eq!(counted, members.len());
        prop_assert_eq!(h.leaders().len(), h.n_nodes());
    }

    #[test]
    fn binomial_tree_shape_invariants(n in 1usize..600) {
        let mut reached = vec![false; n];
        reached[0] = true;
        // BFS from the root must reach everyone exactly once.
        let mut frontier = vec![0usize];
        let mut depth = 0;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for c in binomial_children(v, n) {
                    prop_assert!(!reached[c], "rank {c} reached twice");
                    reached[c] = true;
                    prop_assert_eq!(binomial_parent(c), v);
                    next.push(c);
                }
            }
            frontier = next;
            depth += 1;
            prop_assert!(depth <= ceil_log2(n) + 1);
        }
        prop_assert!(reached.iter().all(|&r| r));
        prop_assert!(floor_pow2(n) <= n && 2 * floor_pow2(n) > n);
    }
}

proptest! {
    // SPMD cases are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn co_sum_matches_serial_fold_for_arbitrary_splits(
        images in 2usize..12,
        per_node in 1usize..5,
        colors in proptest::collection::vec(0i64..3, 12),
        values in proptest::collection::vec(-1000i64..1000, 12),
    ) {
        let nodes = images.div_ceil(per_node);
        let machine = presets::mini(nodes, per_node);
        let cfg = RunConfig::sim_packed(machine, images)
            .with_placement(Placement::Block { per_node });
        let colors = std::sync::Arc::new(colors);
        let values = std::sync::Arc::new(values);
        let c2 = colors.clone();
        let v2 = values.clone();
        let out = run(cfg, move |img| {
            let me = img.this_image() - 1;
            let team = img.form_team(c2[me]);
            let (_t, sum) = img.change_team(team, |img| {
                let me0 = img.image_index_in_initial(img.this_image()) - 1;
                let mut v = vec![v2[me0]];
                img.co_sum(&mut v);
                v[0]
            });
            sum
        });
        for me in 0..images {
            let expect: i64 = (0..images)
                .filter(|&j| colors[j] == colors[me])
                .map(|j| values[j])
                .sum();
            prop_assert_eq!(out[me], expect, "image {}", me + 1);
        }
    }

    #[test]
    fn broadcast_delivers_arbitrary_payload_everywhere(
        images in 2usize..10,
        per_node in 1usize..5,
        root in 0usize..10,
        payload in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let root = root % images + 1;
        let nodes = images.div_ceil(per_node);
        let cfg = RunConfig::sim_packed(presets::mini(nodes, per_node), images)
            .with_placement(Placement::Block { per_node });
        let payload = std::sync::Arc::new(payload);
        let p2 = payload.clone();
        let out = run(cfg, move |img| {
            let mut buf = if img.this_image() == root {
                p2.to_vec()
            } else {
                vec![0u64; p2.len()]
            };
            img.co_broadcast(&mut buf, root);
            buf
        });
        for b in out {
            prop_assert_eq!(&b, &*payload);
        }
    }

    #[test]
    fn lu_solves_arbitrary_seeds_and_shapes(
        seed in any::<u64>(),
        n_blocks in 2usize..7,
        nb in 2usize..6,
        images in prop::sample::select(vec![1usize, 2, 4, 6]),
    ) {
        let n = n_blocks * nb + (seed % 3) as usize; // exercise partial blocks
        let nodes = images.min(2);
        let per = images.div_ceil(nodes);
        let cfg = RunConfig::sim_packed(presets::mini(nodes, per), images);
        let hpl = caf::hpl::HplConfig { n, nb, seed };
        let out = run(cfg, move |img| {
            let o = caf::hpl::factorize(img, &hpl);
            caf::hpl::residual_check(img, &hpl, &o)
        });
        let r = out[0].expect("image 1 verifies");
        prop_assert!(r < 1e-9, "residual {} for n={} nb={} images={}", r, n, nb, images);
    }
}
