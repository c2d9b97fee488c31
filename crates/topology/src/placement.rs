//! Image placement: which core does each SPMD image run on?
//!
//! A launch of `n` images onto a [`MachineModel`] produces an [`ImageMap`],
//! the structure the runtime's `team_type` consults to split any team into
//! intranode sets (paper §IV-A). Placement policies mirror the launchers used
//! in the paper's evaluation: *packed* (fill each node before moving on —
//! "8 images per node"), *block* with an explicit per-node count, *cyclic*
//! (round-robin over nodes — "1 image per node" up to 44 images), and fully
//! *custom* maps.

use crate::ids::{NodeId, ProcId};
use crate::machine::{CoreLocation, MachineModel};
use serde::{Deserialize, Serialize};

/// A placement policy, turned into an [`ImageMap`] by [`ImageMap::new`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Fill node 0's cores first, then node 1's, … (SLURM `--distribution=block`).
    Packed,
    /// Exactly `per_node` images on each node, in node order.
    Block {
        /// Images placed on each node before moving to the next.
        per_node: usize,
    },
    /// Image `i` goes to node `i mod nodes` (SLURM `--distribution=cyclic`).
    Cyclic,
    /// Explicit image → global core index map.
    Custom(Vec<usize>),
}

/// The realized image → location map for one launch, plus the reverse
/// node → images index the hierarchy-aware runtime needs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageMap {
    machine: MachineModel,
    locs: Vec<CoreLocation>,
    node_members: Vec<Vec<ProcId>>,
}

impl ImageMap {
    /// Place `n_images` on `machine` according to `placement`.
    ///
    /// # Panics
    /// Panics if the placement would oversubscribe a core (two images on the
    /// same core) or reference a core outside the machine, or if `n_images`
    /// is zero.
    pub fn new(machine: MachineModel, n_images: usize, placement: &Placement) -> Self {
        assert!(n_images > 0, "cannot place zero images");
        let total = machine.total_cores();
        assert!(
            n_images <= total,
            "{n_images} images oversubscribe {total} cores of machine `{}`",
            machine.name
        );
        let global_cores: Vec<usize> = match placement {
            Placement::Packed => (0..n_images).collect(),
            Placement::Block { per_node } => {
                assert!(*per_node > 0, "Block placement needs per_node >= 1");
                assert!(
                    *per_node <= machine.cores_per_node(),
                    "per_node {} exceeds {} cores per node",
                    per_node,
                    machine.cores_per_node()
                );
                let nodes_needed = n_images.div_ceil(*per_node);
                assert!(
                    nodes_needed <= machine.nodes,
                    "Block {{ per_node: {per_node} }} needs {nodes_needed} nodes, machine has {}",
                    machine.nodes
                );
                (0..n_images)
                    .map(|i| {
                        let node = i / per_node;
                        let slot = i % per_node;
                        node * machine.cores_per_node() + slot
                    })
                    .collect()
            }
            Placement::Cyclic => {
                let cpn = machine.cores_per_node();
                (0..n_images)
                    .map(|i| {
                        let node = i % machine.nodes;
                        let slot = i / machine.nodes;
                        assert!(
                            slot < cpn,
                            "cyclic placement wrapped past {} cores on node {node}",
                            cpn
                        );
                        node * cpn + slot
                    })
                    .collect()
            }
            Placement::Custom(map) => {
                assert_eq!(
                    map.len(),
                    n_images,
                    "custom placement has {} entries for {n_images} images",
                    map.len()
                );
                map.clone()
            }
        };

        // Reject double-booked cores.
        let mut seen = vec![false; total];
        for (i, &g) in global_cores.iter().enumerate() {
            assert!(g < total, "image {i} placed on nonexistent core {g}");
            assert!(!seen[g], "two images placed on global core {g}");
            seen[g] = true;
        }

        let locs: Vec<CoreLocation> = global_cores
            .iter()
            .map(|&g| machine.locate_global_core(g))
            .collect();
        let mut node_members = vec![Vec::new(); machine.nodes];
        for (i, loc) in locs.iter().enumerate() {
            node_members[loc.node.index()].push(ProcId(i));
        }
        Self {
            machine,
            locs,
            node_members,
        }
    }

    /// Number of images in this launch.
    #[inline]
    pub fn n_images(&self) -> usize {
        self.locs.len()
    }

    /// The machine the images run on.
    #[inline]
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Hardware location of an image.
    #[inline]
    pub fn location(&self, p: ProcId) -> CoreLocation {
        self.locs[p.index()]
    }

    /// Node an image runs on.
    #[inline]
    pub fn node_of(&self, p: ProcId) -> NodeId {
        self.locs[p.index()].node
    }

    /// All images resident on `node`, in rank order.
    #[inline]
    pub fn images_on_node(&self, node: NodeId) -> &[ProcId] {
        &self.node_members[node.index()]
    }

    /// True when `a` and `b` share a node (can use the intra-node strategy).
    #[inline]
    pub fn colocated(&self, a: ProcId, b: ProcId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// True when `a` and `b` share a socket within a node (the finer level of
    /// the multi-level extension).
    #[inline]
    pub fn same_socket(&self, a: ProcId, b: ProcId) -> bool {
        self.machine
            .same_socket(self.locs[a.index()], self.locs[b.index()])
    }

    /// Number of distinct nodes that host at least one image.
    pub fn occupied_nodes(&self) -> usize {
        self.node_members.iter().filter(|m| !m.is_empty()).count()
    }

    /// The process plan of a one-process-per-node fleet: each occupied
    /// node with the images it hosts, in node order — the index into this
    /// list is the **process rank**. The socket fabric, the launcher's
    /// death reports and the test fleets all read who hosts what from
    /// here, so they cannot disagree.
    pub fn process_plan(&self) -> Vec<(NodeId, &[ProcId])> {
        self.node_members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(n, m)| (NodeId(n), m.as_slice()))
            .collect()
    }

    /// Largest number of images sharing one node.
    pub fn max_images_per_node(&self) -> usize {
        self.node_members.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn whale() -> MachineModel {
        MachineModel::new("whale", 44, 2, 4)
    }

    #[test]
    fn packed_fills_nodes_in_order() {
        let m = ImageMap::new(whale(), 20, &Placement::Packed);
        assert_eq!(m.node_of(ProcId(0)), NodeId(0));
        assert_eq!(m.node_of(ProcId(7)), NodeId(0));
        assert_eq!(m.node_of(ProcId(8)), NodeId(1));
        assert_eq!(m.node_of(ProcId(19)), NodeId(2));
        assert_eq!(m.occupied_nodes(), 3);
        assert_eq!(m.max_images_per_node(), 8);
    }

    #[test]
    fn block_8_per_node_matches_paper_launch() {
        // The paper's dense launch: 8 images per node, e.g. 64 images on 8 nodes.
        let m = ImageMap::new(whale(), 64, &Placement::Block { per_node: 8 });
        assert_eq!(m.occupied_nodes(), 8);
        for node in 0..8 {
            assert_eq!(m.images_on_node(NodeId(node)).len(), 8);
        }
        assert!(m.colocated(ProcId(0), ProcId(7)));
        assert!(!m.colocated(ProcId(7), ProcId(8)));
    }

    #[test]
    fn block_2_per_node() {
        // 16 images on 8 nodes = the paper's 16(8)-style sparse config.
        let m = ImageMap::new(whale(), 16, &Placement::Block { per_node: 2 });
        assert_eq!(m.occupied_nodes(), 8);
        assert_eq!(m.max_images_per_node(), 2);
        assert!(m.colocated(ProcId(0), ProcId(1)));
        assert!(!m.colocated(ProcId(1), ProcId(2)));
    }

    #[test]
    fn cyclic_one_per_node_until_wrap() {
        // The paper's flat launch: 1 image per node (n <= 44).
        let m = ImageMap::new(whale(), 44, &Placement::Cyclic);
        assert_eq!(m.occupied_nodes(), 44);
        assert_eq!(m.max_images_per_node(), 1);
        for i in 0..44 {
            assert_eq!(m.node_of(ProcId(i)), NodeId(i));
        }
    }

    #[test]
    fn cyclic_wraps_to_second_core() {
        let m = ImageMap::new(whale(), 50, &Placement::Cyclic);
        assert_eq!(m.node_of(ProcId(44)), NodeId(0));
        assert_eq!(m.max_images_per_node(), 2);
        assert!(m.colocated(ProcId(0), ProcId(44)));
    }

    #[test]
    fn custom_placement_roundtrip() {
        let mach = whale();
        // Reverse the packed order of 10 images.
        let cores: Vec<usize> = (0..10).rev().collect();
        let m = ImageMap::new(mach.clone(), 10, &Placement::Custom(cores));
        assert_eq!(m.node_of(ProcId(0)), NodeId(1)); // core 9 is on node 1
        assert_eq!(m.node_of(ProcId(9)), NodeId(0));
        assert_eq!(m.n_images(), 10);
    }

    #[test]
    fn node_members_in_rank_order() {
        let m = ImageMap::new(whale(), 16, &Placement::Block { per_node: 8 });
        let members = m.images_on_node(NodeId(1));
        assert_eq!(
            members,
            &(8..16).map(ProcId).collect::<Vec<_>>()[..],
            "node members must be sorted by rank"
        );
    }

    #[test]
    fn process_plan_ranks_only_occupied_nodes() {
        // whale has 8 cores per node: images on nodes 2 and 0, node 1 empty.
        let m = ImageMap::new(whale(), 3, &Placement::Custom(vec![16, 0, 17]));
        assert_eq!(
            m.process_plan(),
            vec![
                (NodeId(0), &[ProcId(1)][..]),
                (NodeId(2), &[ProcId(0), ProcId(2)][..]),
            ],
            "rank 0 = node 0, rank 1 = node 2; the empty node gets no rank"
        );
        assert_eq!(m.occupied_nodes(), 2);
    }

    #[test]
    fn same_socket_distinction() {
        let m = ImageMap::new(whale(), 8, &Placement::Packed);
        assert!(m.same_socket(ProcId(0), ProcId(3)));
        assert!(!m.same_socket(ProcId(3), ProcId(4)));
        assert!(m.colocated(ProcId(3), ProcId(4)));
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn oversubscription_rejected() {
        ImageMap::new(MachineModel::new("tiny", 1, 1, 2), 3, &Placement::Packed);
    }

    #[test]
    #[should_panic(expected = "two images placed on global core")]
    fn double_booking_rejected() {
        ImageMap::new(whale(), 2, &Placement::Custom(vec![5, 5]));
    }

    #[test]
    #[should_panic(expected = "needs 9 nodes")]
    fn block_needs_enough_nodes() {
        ImageMap::new(
            MachineModel::new("small", 8, 2, 8),
            65,
            &Placement::Block { per_node: 8 },
        );
    }
}
