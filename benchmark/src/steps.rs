//! The benchmark's own hosted-image programs for `sim-scale`.
//!
//! ROADMAP item 2 deletes `caf_fabric::stepper::kernels`, so the
//! benchmark cannot lean on them: it carries these three programs itself
//! and depends only on `run_stepped`/`StepProgram`/`StepOp`. Each program
//! maps a step counter to its op, so an image is three words of state.
//! Start-up asserts that the barrier still reproduces the committed
//! 10k-image makespan (BENCH_simscale.json), which pins both these
//! programs and the simulator's cost model.

use caf_fabric::{FlagId, SimConfig, SimFabric, StepOp, StepProgram};
use caf_topology::{presets, ImageMap, Placement, SoftwareOverheads};
use std::sync::Arc;

const BARRIER_FLAG: FlagId = FlagId(0);
const BCAST_FLAG: FlagId = FlagId(1);
const REDUCE_FLAG: FlagId = FlagId(2);

/// Committed `sharded_virt` makespan of the dissemination barrier, two
/// epochs, 10 000 images on the synthetic 512-per-node cluster
/// (BENCH_simscale.json).
pub const BARRIER_10K_VIRT_NS: u64 = 2_387_056;

/// Images per node of the synthetic fat cluster.
pub const PER_NODE: usize = 512;

fn ceil_log2(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// Bit length of `v` (0 for 0): children of `v` in the binomial tree are
/// `v + 2^k` for `k >= bit_len(v)`.
fn bit_len(v: usize) -> usize {
    (usize::BITS - v.leading_zeros()) as usize
}

fn n_children(v: usize, n: usize) -> usize {
    (bit_len(v)..usize::BITS as usize - 1)
        .take_while(|k| v + (1 << k) < n)
        .count()
}

/// The kernels `sim-scale` steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Barrier,
    Bcast,
    Reduce,
}

/// One hosted image of one kernel: `step` counts ops issued in the
/// current epoch.
pub struct Program {
    kernel: Kernel,
    me: usize,
    n: usize,
    epochs: u64,
    epoch: u64,
    step: usize,
    /// Barrier: rounds. Bcast/reduce: my child count.
    fan: usize,
}

impl Program {
    pub fn new(kernel: Kernel, me: usize, n: usize, epochs: u64) -> Self {
        let fan = match kernel {
            Kernel::Barrier => ceil_log2(n),
            Kernel::Bcast | Kernel::Reduce => n_children(me, n),
        };
        Program {
            kernel,
            me,
            n,
            epochs,
            epoch: 0,
            step: 0,
            fan,
        }
    }

    /// Ops this image issues per epoch.
    fn ops_per_epoch(&self) -> usize {
        let non_root = usize::from(self.me != 0);
        match self.kernel {
            Kernel::Barrier => 2 * self.fan,
            // wait for the parent, then put + notify each child
            Kernel::Bcast => non_root + 2 * self.fan,
            // wait for all children, then put + notify the parent
            Kernel::Reduce => usize::from(self.fan > 0) + 2 * non_root,
        }
    }

    fn op(&self, step: usize) -> StepOp {
        let tag = self.epoch + 1;
        match self.kernel {
            // Round k notifies (me + 2^k) mod n, then waits for the
            // cumulative count: flags never reset between episodes.
            Kernel::Barrier => {
                let round = step / 2;
                if step.is_multiple_of(2) {
                    StepOp::FlagAdd {
                        dst: (self.me + (1 << round)) % self.n,
                        flag: BARRIER_FLAG,
                        delta: 1,
                    }
                } else {
                    StepOp::WaitGe {
                        flag: BARRIER_FLAG,
                        at_least: self.epoch * self.fan as u64 + round as u64 + 1,
                    }
                }
            }
            Kernel::Bcast => {
                let non_root = usize::from(self.me != 0);
                if step < non_root {
                    return StepOp::WaitGe {
                        flag: BCAST_FLAG,
                        at_least: tag,
                    };
                }
                let s = step - non_root;
                let dst = self.me + (1 << (bit_len(self.me) + s / 2));
                if s.is_multiple_of(2) {
                    StepOp::Put {
                        dst,
                        offset: 0,
                        val: tag,
                    }
                } else {
                    StepOp::FlagAdd {
                        dst,
                        flag: BCAST_FLAG,
                        delta: 1,
                    }
                }
            }
            Kernel::Reduce => {
                let waits = usize::from(self.fan > 0);
                if step < waits {
                    return StepOp::WaitGe {
                        flag: REDUCE_FLAG,
                        at_least: tag * self.fan as u64,
                    };
                }
                // My parent clears my top bit; my slot there is my rank
                // among its children.
                let top = bit_len(self.me) - 1;
                let parent = self.me & !(1 << top);
                if step - waits == 0 {
                    StepOp::Put {
                        dst: parent,
                        offset: (top - bit_len(parent)) * 8,
                        val: tag,
                    }
                } else {
                    StepOp::FlagAdd {
                        dst: parent,
                        flag: REDUCE_FLAG,
                        delta: 1,
                    }
                }
            }
        }
    }
}

impl StepProgram for Program {
    fn next(&mut self) -> StepOp {
        while self.epoch < self.epochs {
            if self.step < self.ops_per_epoch() {
                let op = self.op(self.step);
                self.step += 1;
                return op;
            }
            self.step = 0;
            self.epoch += 1;
        }
        StepOp::Done
    }
}

pub fn programs(kernel: Kernel, n: usize, epochs: u64) -> Vec<Program> {
    (0..n)
        .map(|me| Program::new(kernel, me, n, epochs))
        .collect()
}

/// How many ops `run_stepped` must report for `kernel` over `n` images —
/// counted from the tree shape, not from the programs.
pub fn expected_total_ops(kernel: Kernel, n: usize, epochs: u64) -> u64 {
    let n64 = n as u64;
    let per_epoch = match kernel {
        Kernel::Barrier => n64 * 2 * ceil_log2(n) as u64,
        Kernel::Bcast => 3 * (n64 - 1),
        Kernel::Reduce => {
            let parents = (0..n).filter(|&v| v + (1usize << bit_len(v)) < n).count() as u64;
            parents + 2 * (n64 - 1)
        }
    };
    per_epoch * epochs + n64 // + one retirement per image
}

/// The synthetic fat cluster of BENCH_simscale: 512 images per node, as
/// many nodes as the fleet needs, whale costs, no software overheads,
/// capped bootstrap slots so the footprint stays linear in the fleet.
pub fn scale_fabric(n: usize) -> Arc<SimFabric> {
    let nodes = n.div_ceil(PER_NODE).max(2);
    let map = ImageMap::new(
        presets::mini(nodes, PER_NODE),
        n,
        &Placement::Block { per_node: PER_NODE },
    );
    SimFabric::new(
        map,
        SimConfig {
            cost: presets::whale_cost(),
            overheads: SoftwareOverheads::NONE,
            chaos: None,
            legacy_queue: false,
            bootstrap_slots: Some(4),
            ..SimConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_fabric::run_stepped;

    fn makespan(kernel: Kernel, n: usize) -> (u64, u64) {
        let r = run_stepped(&scale_fabric(n), programs(kernel, n, 2));
        (r.max_time_ns, r.total_ops())
    }

    /// The 1k and 10k `sharded_virt` rows of BENCH_simscale.json.
    #[test]
    fn local_programs_reproduce_committed_makespans() {
        assert_eq!(makespan(Kernel::Barrier, 1_000).0, 1_030_780);
        assert_eq!(makespan(Kernel::Bcast, 1_000).0, 383_234);
        assert_eq!(makespan(Kernel::Reduce, 1_000).0, 365_081);
        assert_eq!(makespan(Kernel::Barrier, 10_000).0, BARRIER_10K_VIRT_NS);
        assert_eq!(makespan(Kernel::Bcast, 10_000).0, 1_670_189);
        assert_eq!(makespan(Kernel::Reduce, 10_000).0, 1_589_886);
    }

    #[test]
    fn op_counts_match_the_closed_forms() {
        for kernel in [Kernel::Barrier, Kernel::Bcast, Kernel::Reduce] {
            for n in [2usize, 3, 8, 37, 1000] {
                assert_eq!(
                    makespan(kernel, n).1,
                    expected_total_ops(kernel, n, 2),
                    "{kernel:?} over {n} images"
                );
            }
        }
    }

    #[test]
    fn binomial_tree_shape() {
        assert_eq!(n_children(0, 8), 3);
        assert_eq!(n_children(1, 8), 2);
        assert_eq!(n_children(4, 8), 0);
        // Every non-root has exactly one parent slot.
        for n in 1..40usize {
            let total: usize = (0..n).map(|v| n_children(v, n)).sum();
            assert_eq!(total, n - 1);
        }
    }
}
