//! Intranode-set and leader computation — the heart of the paper's
//! methodology (§IV-A):
//!
//! > "Our methodology will thus rely on detecting the images within a team
//! > that run locally on the same node (intranode set), assigning a leader
//! > for them and handling them with an intra-node strategy. After that, the
//! > leaders, which are on different nodes, are handled in a remote manner."
//!
//! A [`HierarchyView`] is computed once per team (at `form_team` time) from
//! the team's member list and the launch [`ImageMap`], and then consulted by
//! every two-level collective. All ranks in a view are **team-relative**
//! (0-based position in the team's member list), because that is the index
//! space collective algorithms operate in.

use crate::ids::{NodeId, ProcId, SocketId};
use crate::placement::ImageMap;
use serde::{Deserialize, Serialize};

/// The images of one team that share one node, with their elected leader.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntranodeSet {
    /// The node hosting this set.
    pub node: NodeId,
    /// Team-relative ranks of the members, in ascending rank order.
    pub ranks: Vec<usize>,
    /// Team-relative rank of the leader (always `ranks[0]`: the
    /// lowest-ranked co-located image, matching the OpenUH convention).
    pub leader: usize,
}

impl IntranodeSet {
    /// Members excluding the leader (the paper's "slaves").
    pub fn slaves(&self) -> &[usize] {
        &self.ranks[1..]
    }

    /// Number of images in the set.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when the leader is the only member.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }
}

/// The full two-level decomposition of one team.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyView {
    sets: Vec<IntranodeSet>,
    /// team rank → index into `sets`.
    set_of: Vec<usize>,
    /// team rank → position within its set's `ranks` (0 for a leader).
    pos_in_set: Vec<usize>,
    /// Team-relative ranks of all leaders, one per occupied node, in set
    /// order — `sets` and `leaders` share indices.
    leaders: Vec<usize>,
    /// team rank → (node, socket) for the multi-level extension.
    sockets: Vec<(NodeId, SocketId)>,
}

impl HierarchyView {
    /// Decompose a team given its member list (`members[r]` = process of
    /// team rank `r`) and the launch map.
    ///
    /// # Panics
    /// Panics if `members` is empty or contains a process outside the map.
    pub fn build(map: &ImageMap, members: &[ProcId]) -> Self {
        assert!(!members.is_empty(), "a team needs at least one image");
        // Group team ranks by node, preserving rank order within each node.
        // Sets are ordered by first-appearing rank so that set order (and
        // hence leader order) is deterministic and independent of NodeId
        // numbering.
        let mut sets: Vec<IntranodeSet> = Vec::new();
        // node → its set, so a fleet-sized team is one pass, not one scan
        // of the sets per member.
        let mut set_at = vec![usize::MAX; map.machine().nodes];
        let mut set_of = vec![usize::MAX; members.len()];
        let mut pos_in_set = vec![0; members.len()];
        let mut sockets = Vec::with_capacity(members.len());
        for (rank, &p) in members.iter().enumerate() {
            assert!(
                p.index() < map.n_images(),
                "team member {p:?} outside launch of {} images",
                map.n_images()
            );
            let loc = map.location(p);
            sockets.push((loc.node, loc.socket));
            match set_at[loc.node.index()] {
                idx if idx != usize::MAX => {
                    set_of[rank] = idx;
                    pos_in_set[rank] = sets[idx].ranks.len();
                    sets[idx].ranks.push(rank);
                }
                _ => {
                    set_at[loc.node.index()] = sets.len();
                    set_of[rank] = sets.len();
                    sets.push(IntranodeSet {
                        node: loc.node,
                        ranks: vec![rank],
                        leader: rank,
                    });
                }
            }
        }
        let leaders: Vec<usize> = sets.iter().map(|s| s.leader).collect();
        Self {
            sets,
            set_of,
            pos_in_set,
            leaders,
            sockets,
        }
    }

    /// All intranode sets, one per node that hosts at least one team member.
    pub fn sets(&self) -> &[IntranodeSet] {
        &self.sets
    }

    /// The intranode set containing team rank `rank`.
    pub fn set_for(&self, rank: usize) -> &IntranodeSet {
        &self.sets[self.set_of[rank]]
    }

    /// Position of `rank` within its set's `ranks` — 0 for the leader. The
    /// slot index of every per-member intranode resource.
    pub fn pos_in_set(&self, rank: usize) -> usize {
        self.pos_in_set[rank]
    }

    /// Team-relative rank of the leader for team rank `rank` — the paper's
    /// `get_leader(team, me)`.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.sets[self.set_of[rank]].leader
    }

    /// True when `rank` is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader_of(rank) == rank
    }

    /// Team ranks of all node leaders, in deterministic set order.
    pub fn leaders(&self) -> &[usize] {
        &self.leaders
    }

    /// Position of `rank`'s leader within [`Self::leaders`] — the rank used
    /// in the inter-node dissemination stage. For a leader this is its own
    /// dissemination rank, and the index of `rank`'s set in [`Self::sets`].
    pub fn leader_index_of(&self, rank: usize) -> usize {
        self.set_of[rank]
    }

    /// Number of occupied nodes.
    pub fn n_nodes(&self) -> usize {
        self.sets.len()
    }

    /// Total team size.
    pub fn n_ranks(&self) -> usize {
        self.set_of.len()
    }

    /// True when no two team members share a node — the "flat hierarchy"
    /// case of §V-A, where the two-level algorithm must gracefully degrade
    /// to pure dissemination.
    pub fn is_flat(&self) -> bool {
        self.sets.iter().all(|s| s.ranks.len() == 1)
    }

    /// True when the whole team lives on one node (pure shared memory).
    pub fn is_single_node(&self) -> bool {
        self.sets.len() == 1
    }

    /// Group the members of each intranode set by socket, for the paper's
    /// future-work multi-level hierarchy (§VII). Returns, for the set
    /// containing `rank`, the socket groups as lists of team ranks; each
    /// group's first element acts as the socket leader.
    pub fn socket_groups(&self, rank: usize) -> Vec<Vec<usize>> {
        let set = self.set_for(rank);
        let mut groups: Vec<(SocketId, Vec<usize>)> = Vec::new();
        for &r in &set.ranks {
            let (_, socket) = self.sockets[r];
            match groups.iter_mut().find(|(s, _)| *s == socket) {
                Some((_, g)) => g.push(r),
                None => groups.push((socket, vec![r])),
            }
        }
        groups.into_iter().map(|(_, g)| g).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use crate::placement::Placement;

    fn map(images: usize, per_node: usize) -> ImageMap {
        ImageMap::new(
            MachineModel::new("whale", 44, 2, 4),
            images,
            &Placement::Block { per_node },
        )
    }

    fn full_team(n: usize) -> Vec<ProcId> {
        (0..n).map(ProcId).collect()
    }

    #[test]
    fn initial_team_16_images_2_nodes() {
        let m = map(16, 8);
        let h = HierarchyView::build(&m, &full_team(16));
        assert_eq!(h.n_nodes(), 2);
        assert_eq!(h.leaders(), &[0, 8]);
        assert!(h.is_leader(0));
        assert!(h.is_leader(8));
        assert!(!h.is_leader(1));
        assert_eq!(h.leader_of(5), 0);
        assert_eq!(h.leader_of(13), 8);
        assert_eq!(h.set_for(13).slaves(), &[9, 10, 11, 12, 13, 14, 15]);
        assert!(!h.is_flat());
        assert!(!h.is_single_node());
    }

    #[test]
    fn flat_team_one_image_per_node() {
        let m = ImageMap::new(MachineModel::new("whale", 44, 2, 4), 8, &Placement::Cyclic);
        let h = HierarchyView::build(&m, &full_team(8));
        assert!(h.is_flat());
        assert_eq!(h.n_nodes(), 8);
        for r in 0..8 {
            assert!(h.is_leader(r));
            assert_eq!(h.leader_index_of(r), r);
        }
    }

    #[test]
    fn single_node_team() {
        let m = map(8, 8);
        let h = HierarchyView::build(&m, &full_team(8));
        assert!(h.is_single_node());
        assert_eq!(h.leaders(), &[0]);
        assert_eq!(h.set_for(7).len(), 8);
    }

    #[test]
    fn subteam_ranks_are_team_relative() {
        // Team of the odd processes of a 16-image launch on 2 nodes:
        // procs 1,3,5,7 on node 0, procs 9,11,13,15 on node 1.
        let m = map(16, 8);
        let members: Vec<ProcId> = (0..16).filter(|i| i % 2 == 1).map(ProcId).collect();
        let h = HierarchyView::build(&m, &members);
        assert_eq!(h.n_ranks(), 8);
        assert_eq!(h.n_nodes(), 2);
        // Team ranks 0..4 (procs 1,3,5,7) on node 0; leader = team rank 0.
        assert_eq!(h.leader_of(3), 0);
        // Team ranks 4..8 on node 1; leader = team rank 4.
        assert_eq!(h.leader_of(6), 4);
        assert_eq!(h.leaders(), &[0, 4]);
        assert_eq!(h.leader_index_of(6), 1);
    }

    #[test]
    fn scrambled_member_order_leader_is_lowest_rank_not_lowest_proc() {
        // Members listed out of proc order: leader is the first *team rank*
        // on each node.
        let m = map(16, 8);
        let members = vec![ProcId(9), ProcId(1), ProcId(8), ProcId(0)];
        let h = HierarchyView::build(&m, &members);
        // node 1 appears first (rank 0 = proc 9), node 0 second (rank 1 = proc 1).
        assert_eq!(h.leaders(), &[0, 1]);
        assert_eq!(h.leader_of(2), 0); // proc 8 is on node 1, led by rank 0
        assert_eq!(h.leader_of(3), 1); // proc 0 on node 0, led by rank 1
    }

    #[test]
    fn set_order_deterministic_by_first_appearance() {
        let m = map(16, 8);
        let members = vec![ProcId(15), ProcId(0), ProcId(14), ProcId(1)];
        let h = HierarchyView::build(&m, &members);
        assert_eq!(h.sets()[0].node, NodeId(1));
        assert_eq!(h.sets()[1].node, NodeId(0));
        assert_eq!(h.sets()[0].ranks, vec![0, 2]);
        assert_eq!(h.sets()[1].ranks, vec![1, 3]);
        for set in h.sets() {
            for (pos, &r) in set.ranks.iter().enumerate() {
                assert_eq!(h.pos_in_set(r), pos);
            }
        }
    }

    #[test]
    fn socket_groups_split_a_node() {
        // 8 images packed on one node: cores 0..4 = socket 0, 4..8 = socket 1.
        let m = map(8, 8);
        let h = HierarchyView::build(&m, &full_team(8));
        let groups = h.socket_groups(0);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![0, 1, 2, 3]);
        assert_eq!(groups[1], vec![4, 5, 6, 7]);
    }

    #[test]
    fn singleton_team() {
        let m = map(16, 8);
        let h = HierarchyView::build(&m, &[ProcId(5)]);
        assert_eq!(h.n_nodes(), 1);
        assert!(h.is_flat());
        assert!(h.is_single_node());
        assert!(h.is_leader(0));
        assert!(h.set_for(0).slaves().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one image")]
    fn empty_team_rejected() {
        let m = map(8, 8);
        HierarchyView::build(&m, &[]);
    }

    #[test]
    #[should_panic(expected = "outside launch")]
    fn member_outside_launch_rejected() {
        let m = map(8, 8);
        HierarchyView::build(&m, &[ProcId(8)]);
    }

    #[test]
    fn leaders_count_matches_occupied_nodes_352() {
        // Paper-scale: 352 images, 8 per node on 44 nodes.
        let m = map(352, 8);
        let h = HierarchyView::build(&m, &full_team(352));
        assert_eq!(h.n_nodes(), 44);
        assert_eq!(h.leaders().len(), 44);
        for s in h.sets() {
            assert_eq!(s.len(), 8);
            assert_eq!(s.leader, s.ranks[0]);
        }
    }
}
