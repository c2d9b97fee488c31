//! Algorithm selection — the knob distinguishing the paper's "1-level"
//! baseline runtime from the hierarchy-aware "2-level" runtime, extended
//! with a (hierarchy × message size) policy: below the pipeline crossover
//! the latency-optimal trees win; above it the chunked pipelined data path
//! does.
//!
//! The two-level reduction presumes a team that spans nodes. On a one-node
//! team of power-of-two size it degenerates into a star that loses to flat
//! recursive doubling, so there `TwoLevel` and `Auto` resolve to recursive
//! doubling (EXPERIMENTS.md EXP-R1c sizes the rule). Other one-node sizes,
//! and every broadcast and barrier, resolve as the paper's method says.

use caf_topology::{CostParams, HierarchyView};

/// Barrier algorithm choice. The discriminant is the algorithm's trace code
/// (`Barrier` event `a`), read as `algo as u64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BarrierAlgo {
    /// Centralized linear counter barrier: 2(n−1) notifications, all
    /// through one image — good on shared memory, terrible across nodes.
    CentralCounter = 1,
    /// Pure dissemination (Hensgen/Finkel/Manber; Mellor-Crummey & Scott),
    /// implemented PGAS-style with a single accumulating `sync_flags`
    /// counter per round — one wait, no sense reversal. This is the paper's
    /// "1-level" UHCAF baseline.
    Dissemination = 3,
    /// Binomial-tree barrier (gather up a tree rooted at rank 0, release
    /// back down): 2(n−1) notifications like the central counter, but
    /// log-depth — the MCS tree barrier's message pattern.
    BinomialTree = 2,
    /// The paper's Team Dissemination Linear Barrier (Algorithm 1):
    /// intra-node linear gather to a per-node leader, dissemination among
    /// leaders, intra-node linear release. The "2-level" algorithm.
    Tdlb = 4,
    /// §VII future work: a three-level TDLB with a socket level below the
    /// node level (socket gather → node gather → leader dissemination →
    /// releases back down).
    TdlbMultilevel = 5,
    /// Hierarchy-aware choice at team-formation time: dissemination for
    /// flat teams, TDLB otherwise.
    #[default]
    Auto = 0,
}

/// Reduction (allreduce) algorithm choice. The discriminant is the
/// algorithm's trace code (`Reduce` event `a`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReduceAlgo {
    /// Flat recursive doubling over all images (with the standard
    /// fold-in/fold-out pre/post phases for non-power-of-two sizes) —
    /// the "1-level" baseline.
    FlatRecursiveDoubling = 1,
    /// Flat binomial-tree reduce to rank 0 followed by a binomial broadcast.
    FlatBinomial = 2,
    /// The paper's two-level reduction: intra-node linear combine at each
    /// node leader, recursive doubling among leaders, intra-node release.
    /// A one-node team of power-of-two size resolves it to
    /// `FlatRecursiveDoubling` (see [`ReduceAlgo::resolve`]).
    TwoLevel = 3,
    /// Chunked pipelined two-level reduction for large payloads: slaves
    /// stream chunks at their leader (per-chunk combine), leaders run a
    /// Rabenseifner reduce-scatter + allgather across nodes, results stream
    /// back — every stage overlaps the next chunk's communication.
    TwoLevelPipelined = 4,
    /// Rabenseifner's allreduce (recursive-halving reduce-scatter followed
    /// by recursive-doubling allgather): the bandwidth-optimal flat
    /// algorithm for large buffers.
    Rabenseifner = 5,
    /// Hierarchy- and size-aware choice: recursive doubling for flat teams
    /// and for one-node teams of power-of-two size, two-level otherwise;
    /// above the pipeline crossover, Rabenseifner (flat) or the pipelined
    /// two-level scheme.
    #[default]
    Auto = 0,
}

/// Broadcast algorithm choice. The discriminant is the algorithm's trace
/// code (`Bcast` event `a`); the ring broadcast's is `bcast::RING_CODE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BcastAlgo {
    /// Root puts to every image directly (n−1 serialized sends).
    FlatLinear = 1,
    /// Binomial tree over all images — the "1-level" baseline.
    FlatBinomial = 2,
    /// The paper's two-level broadcast: binomial tree over node leaders
    /// (with the root acting as its node's leader), then an intra-node
    /// linear fan-out.
    TwoLevel = 3,
    /// Chunked pipelined two-level broadcast for large payloads: K-byte
    /// chunks stream down a *binary* tree of node leaders with nonblocking
    /// puts, and each leader forwards a chunk inter-node while fanning the
    /// previous one out over its node bus.
    TwoLevelPipelined = 4,
    /// Hierarchy- and size-aware choice: binomial for flat teams, two-level
    /// otherwise; above the pipeline crossover, the pipelined scheme.
    #[default]
    Auto = 0,
}

/// Gather/scatter algorithm choice (extension collectives; the paper's
/// methodology applied beyond its three operations).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GatherAlgo {
    /// Every member exchanges directly with the root.
    FlatLinear,
    /// Members exchange with their node leader over shared memory; one
    /// message per node crosses the network.
    TwoLevel,
    /// Hierarchy-aware choice: flat for flat teams, two-level otherwise.
    #[default]
    Auto,
}

impl GatherAlgo {
    /// Resolve `Auto` against a team's hierarchy.
    pub fn resolve(self, hier: &HierarchyView) -> GatherAlgo {
        match self {
            GatherAlgo::Auto => {
                if hier.is_flat() {
                    GatherAlgo::FlatLinear
                } else {
                    GatherAlgo::TwoLevel
                }
            }
            fixed => fixed,
        }
    }
}

/// The size-aware half of `Auto` resolution, computed from the machine's
/// [`CostParams`] at team-formation time. Every team member derives the
/// identical policy from the shared cost model, so per-call algorithm
/// selection by payload size stays collectively consistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizePolicy {
    /// Pipeline chunk size for the chunked collectives, bytes.
    pub chunk_bytes: usize,
    /// Payload size at which `Auto` switches broadcast to the pipelined
    /// path and reduction to the pipelined / Rabenseifner path, bytes.
    pub crossover_bytes: usize,
}

impl SizePolicy {
    /// Derive the policy from a machine's cost parameters.
    pub fn from_cost(cost: &CostParams) -> Self {
        Self {
            chunk_bytes: cost.pipeline_chunk_bytes(),
            crossover_bytes: cost.pipeline_crossover_bytes(),
        }
    }
}

impl Default for SizePolicy {
    fn default() -> Self {
        Self::from_cost(&CostParams::default())
    }
}

/// Per-team collective configuration, fixed at team-formation time.
///
/// Every wait counts the arrivals its episode brings on one flag, added to
/// what that flag has consumed so far (the team's counted wait), so no
/// threshold depends on which algorithm ran before: the size-aware `Auto`
/// may pick a different broadcast or reduction per call (see
/// `TeamComm::bcast_algo_for`/`reduce_algo_for`), as long as every member
/// picks the same one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CollectiveConfig {
    /// Barrier algorithm.
    pub barrier: BarrierAlgo,
    /// Reduction algorithm.
    pub reduce: ReduceAlgo,
    /// Broadcast algorithm.
    pub bcast: BcastAlgo,
    /// Gather/scatter algorithm.
    pub gather: GatherAlgo,
}

impl CollectiveConfig {
    /// The paper's hierarchy-aware "2-level" runtime (also the default).
    pub fn two_level() -> Self {
        Self {
            barrier: BarrierAlgo::Tdlb,
            reduce: ReduceAlgo::TwoLevel,
            bcast: BcastAlgo::TwoLevel,
            gather: GatherAlgo::TwoLevel,
        }
    }

    /// The paper's "1-level" baseline runtime: pure dissemination barrier,
    /// flat recursive-doubling reduction, flat binomial broadcast.
    pub fn one_level() -> Self {
        Self {
            barrier: BarrierAlgo::Dissemination,
            reduce: ReduceAlgo::FlatRecursiveDoubling,
            bcast: BcastAlgo::FlatBinomial,
            gather: GatherAlgo::FlatLinear,
        }
    }

    /// Hierarchy-aware automatic selection (the default).
    pub fn auto() -> Self {
        Self::default()
    }
}

impl BarrierAlgo {
    /// Resolve `Auto` against a team's hierarchy.
    pub fn resolve(self, hier: &HierarchyView) -> BarrierAlgo {
        match self {
            BarrierAlgo::Auto => {
                if hier.is_flat() {
                    BarrierAlgo::Dissemination
                } else {
                    BarrierAlgo::Tdlb
                }
            }
            fixed => fixed,
        }
    }
}

impl ReduceAlgo {
    /// Resolve `Auto` against a team's hierarchy. On a one-node team of
    /// power-of-two size, `TwoLevel` and `Auto` both resolve to recursive
    /// doubling: with one level the two-level scheme is a linear gather,
    /// n − 1 serial combines and a star release, while recursive doubling
    /// takes log₂ n exchanges and, at a power of two, no fold-in or
    /// fold-out.
    pub fn resolve(self, hier: &HierarchyView) -> ReduceAlgo {
        match self {
            ReduceAlgo::TwoLevel | ReduceAlgo::Auto
                if hier.is_single_node() && hier.n_ranks().is_power_of_two() =>
            {
                ReduceAlgo::FlatRecursiveDoubling
            }
            ReduceAlgo::Auto => {
                if hier.is_flat() {
                    ReduceAlgo::FlatRecursiveDoubling
                } else {
                    ReduceAlgo::TwoLevel
                }
            }
            fixed => fixed,
        }
    }

    /// Resolve `Auto` against (hierarchy × payload size): latency-optimal
    /// below the crossover, bandwidth-optimal above it.
    pub fn resolve_sized(
        self,
        hier: &HierarchyView,
        bytes: usize,
        policy: &SizePolicy,
    ) -> ReduceAlgo {
        match self {
            ReduceAlgo::Auto if bytes >= policy.crossover_bytes => {
                if hier.is_flat() {
                    ReduceAlgo::Rabenseifner
                } else {
                    ReduceAlgo::TwoLevelPipelined
                }
            }
            other => other.resolve(hier),
        }
    }
}

impl BcastAlgo {
    /// Resolve `Auto` against a team's hierarchy.
    pub fn resolve(self, hier: &HierarchyView) -> BcastAlgo {
        match self {
            BcastAlgo::Auto => {
                if hier.is_flat() {
                    BcastAlgo::FlatBinomial
                } else {
                    BcastAlgo::TwoLevel
                }
            }
            fixed => fixed,
        }
    }

    /// Resolve `Auto` against (hierarchy × payload size): latency-optimal
    /// below the crossover, pipelined above it.
    pub fn resolve_sized(
        self,
        hier: &HierarchyView,
        bytes: usize,
        policy: &SizePolicy,
    ) -> BcastAlgo {
        match self {
            BcastAlgo::Auto if bytes >= policy.crossover_bytes => BcastAlgo::TwoLevelPipelined,
            other => other.resolve(hier),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_topology::{presets, HierarchyView, ImageMap, Placement, ProcId};

    fn hier(nodes: usize, per_node: usize, images: usize) -> HierarchyView {
        let map = ImageMap::new(
            presets::mini(nodes, per_node.max(1)),
            images,
            &Placement::Block { per_node },
        );
        let members: Vec<ProcId> = (0..images).map(ProcId).collect();
        HierarchyView::build(&map, &members)
    }

    #[test]
    fn auto_has_trace_code_zero() {
        // A span records a resolved algorithm, so 0 never reaches a trace.
        assert_eq!(BarrierAlgo::Auto as u64, 0);
        assert_eq!(BcastAlgo::Auto as u64, 0);
        assert_eq!(ReduceAlgo::Auto as u64, 0);
    }

    #[test]
    fn auto_resolves_flat_to_dissemination() {
        let h = hier(8, 1, 8);
        assert_eq!(BarrierAlgo::Auto.resolve(&h), BarrierAlgo::Dissemination);
        assert_eq!(
            ReduceAlgo::Auto.resolve(&h),
            ReduceAlgo::FlatRecursiveDoubling
        );
        assert_eq!(BcastAlgo::Auto.resolve(&h), BcastAlgo::FlatBinomial);
    }

    #[test]
    fn auto_resolves_hierarchical_to_two_level() {
        let h = hier(2, 4, 8);
        assert_eq!(BarrierAlgo::Auto.resolve(&h), BarrierAlgo::Tdlb);
        assert_eq!(ReduceAlgo::Auto.resolve(&h), ReduceAlgo::TwoLevel);
        assert_eq!(BcastAlgo::Auto.resolve(&h), BcastAlgo::TwoLevel);
    }

    #[test]
    fn fixed_choices_pass_through() {
        let h = hier(2, 4, 8);
        assert_eq!(
            BarrierAlgo::CentralCounter.resolve(&h),
            BarrierAlgo::CentralCounter
        );
        assert_eq!(
            ReduceAlgo::FlatBinomial.resolve(&h),
            ReduceAlgo::FlatBinomial
        );
    }

    #[test]
    fn presets_are_distinct() {
        assert_ne!(CollectiveConfig::one_level(), CollectiveConfig::two_level());
        assert_eq!(CollectiveConfig::auto(), CollectiveConfig::default());
    }

    #[test]
    fn sized_auto_switches_at_the_crossover() {
        let policy = SizePolicy {
            chunk_bytes: 16 * 1024,
            crossover_bytes: 32 * 1024,
        };
        let h2 = hier(2, 4, 8);
        let hf = hier(8, 1, 8);
        // Small payloads: the hierarchy-only choice.
        assert_eq!(
            BcastAlgo::Auto.resolve_sized(&h2, 8, &policy),
            BcastAlgo::TwoLevel
        );
        assert_eq!(
            BcastAlgo::Auto.resolve_sized(&hf, 8, &policy),
            BcastAlgo::FlatBinomial
        );
        assert_eq!(
            ReduceAlgo::Auto.resolve_sized(&h2, 8, &policy),
            ReduceAlgo::TwoLevel
        );
        // Large payloads: the pipelined/bandwidth-optimal choice.
        assert_eq!(
            BcastAlgo::Auto.resolve_sized(&h2, 1 << 20, &policy),
            BcastAlgo::TwoLevelPipelined
        );
        assert_eq!(
            ReduceAlgo::Auto.resolve_sized(&h2, 1 << 20, &policy),
            ReduceAlgo::TwoLevelPipelined
        );
        assert_eq!(
            ReduceAlgo::Auto.resolve_sized(&hf, 1 << 20, &policy),
            ReduceAlgo::Rabenseifner
        );
        // Fixed choices ignore size.
        assert_eq!(
            BcastAlgo::TwoLevel.resolve_sized(&h2, 1 << 20, &policy),
            BcastAlgo::TwoLevel
        );
    }

    #[test]
    fn a_one_node_power_of_two_team_reduces_by_recursive_doubling() {
        for n in [2, 4, 8] {
            let h = hier(1, n, n);
            assert!(h.is_single_node());
            for algo in [ReduceAlgo::TwoLevel, ReduceAlgo::Auto] {
                assert_eq!(
                    algo.resolve(&h),
                    ReduceAlgo::FlatRecursiveDoubling,
                    "{algo:?} on 1 node x {n}"
                );
            }
        }
    }

    #[test]
    fn other_one_node_sizes_and_multi_node_teams_keep_two_level() {
        for n in [3, 6] {
            let h = hier(1, n, n);
            assert_eq!(ReduceAlgo::TwoLevel.resolve(&h), ReduceAlgo::TwoLevel);
            assert_eq!(ReduceAlgo::Auto.resolve(&h), ReduceAlgo::TwoLevel);
        }
        let h = hier(2, 4, 8);
        assert_eq!(ReduceAlgo::TwoLevel.resolve(&h), ReduceAlgo::TwoLevel);
        assert_eq!(ReduceAlgo::Auto.resolve(&h), ReduceAlgo::TwoLevel);
    }

    #[test]
    fn one_node_auto_at_the_crossover_stays_pipelined() {
        let policy = SizePolicy {
            chunk_bytes: 16 * 1024,
            crossover_bytes: 32 * 1024,
        };
        let h = hier(1, 4, 4);
        assert_eq!(
            ReduceAlgo::Auto.resolve_sized(&h, policy.crossover_bytes - 1, &policy),
            ReduceAlgo::FlatRecursiveDoubling
        );
        for bytes in [policy.crossover_bytes, 1 << 20] {
            assert_eq!(
                ReduceAlgo::Auto.resolve_sized(&h, bytes, &policy),
                ReduceAlgo::TwoLevelPipelined
            );
        }
        assert_eq!(
            ReduceAlgo::TwoLevelPipelined.resolve_sized(&h, 8, &policy),
            ReduceAlgo::TwoLevelPipelined
        );
    }

    #[test]
    fn size_policy_derives_from_cost() {
        let p = SizePolicy::from_cost(&CostParams::default());
        assert_eq!(p.chunk_bytes, 16 * 1024);
        assert_eq!(p.crossover_bytes, 2 * p.chunk_bytes);
    }
}
