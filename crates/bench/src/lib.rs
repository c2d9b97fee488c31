//! # caf-bench
//!
//! Shared scaffolding for the experiment harnesses under `benches/`. Each
//! `exp_*` bench target regenerates one table/figure (or quantified claim)
//! of the paper and prints a paper-vs-measured comparison; EXPERIMENTS.md
//! indexes them. `wallclock_collectives` additionally measures the real
//! `ThreadFabric` with criterion.
//!
//! Scale control: set `CAF_BENCH_QUICK=1` to shrink image counts and
//! iteration counts (CI-friendly); the default regenerates the paper-scale
//! configurations.

#![warn(missing_docs)]

pub mod results;

use caf_fabric::{SimConfig, SimFabric};
use caf_hpl::{factorize, HplConfig, PhaseNs};
use caf_runtime::{run_on_fabric, BarrierAlgo, CollectiveConfig};
use caf_topology::{presets, ImageMap, Placement, SoftwareOverheads};

/// True when the quick (CI) scale was requested via `CAF_BENCH_QUICK`.
pub fn quick_mode() -> bool {
    std::env::var("CAF_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Pick between the full and quick value.
pub fn scaled<T: Copy>(full: T, quick: T) -> T {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// A named software stack + collective configuration — one comparator line
/// of the paper's evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Comparator {
    /// Display name used in tables.
    pub name: &'static str,
    /// Software overheads of the stack.
    pub stack: SoftwareOverheads,
    /// Collective algorithms the stack runs.
    pub collectives: CollectiveConfig,
}

/// The barrier comparators of §V-A (EXP-B1): TDLB against every
/// dissemination variant and the MPI barriers.
pub fn barrier_comparators() -> Vec<Comparator> {
    use presets::stacks::*;
    let dissem = |barrier| CollectiveConfig {
        barrier,
        ..CollectiveConfig::default()
    };
    vec![
        Comparator {
            name: "UHCAF-TDLB",
            stack: UHCAF,
            collectives: dissem(BarrierAlgo::Tdlb),
        },
        Comparator {
            name: "UHCAF-dissem",
            stack: UHCAF_FLAT,
            collectives: dissem(BarrierAlgo::Dissemination),
        },
        Comparator {
            name: "GASNet-RDMA",
            stack: GASNET_RDMA,
            collectives: dissem(BarrierAlgo::Dissemination),
        },
        Comparator {
            name: "GASNet-IB",
            stack: GASNET_IB,
            collectives: dissem(BarrierAlgo::Dissemination),
        },
        Comparator {
            name: "CAF2.0",
            stack: CAF20_OPENUH,
            collectives: dissem(BarrierAlgo::Dissemination),
        },
        Comparator {
            name: "MVAPICH",
            stack: MVAPICH,
            collectives: dissem(BarrierAlgo::Dissemination),
        },
        Comparator {
            name: "OpenMPI",
            stack: OPEN_MPI,
            collectives: dissem(BarrierAlgo::Dissemination),
        },
        Comparator {
            name: "OpenMPI-hier",
            stack: OPEN_MPI_HIER,
            collectives: dissem(BarrierAlgo::Tdlb),
        },
    ]
}

/// The five HPL configurations of Figure 1 (EXP-F1).
pub fn hpl_comparators() -> Vec<Comparator> {
    use presets::stacks::*;
    vec![
        Comparator {
            name: "UHCAF-2level",
            stack: UHCAF,
            collectives: CollectiveConfig::two_level(),
        },
        Comparator {
            name: "UHCAF-1level",
            stack: UHCAF_FLAT,
            collectives: CollectiveConfig::one_level(),
        },
        Comparator {
            name: "CAF2.0-OpenUH",
            stack: CAF20_OPENUH,
            collectives: CollectiveConfig::one_level(),
        },
        Comparator {
            name: "CAF2.0-GFortran",
            stack: CAF20_GFORTRAN,
            collectives: CollectiveConfig::one_level(),
        },
        Comparator {
            name: "OpenMPI-notuning",
            stack: OPEN_MPI,
            collectives: CollectiveConfig::one_level(),
        },
    ]
}

/// Print the cost-model parameters an experiment ran with (every harness
/// leads with this, per DESIGN.md §6).
pub fn print_cost_preamble(label: &str) {
    let c = presets::whale_cost();
    println!(
        "[{label}] machine=whale(44x2x4) cost: l_intra={}ns gap_intra={}ns \
         l_inter={}ns gap_nic={}ns o_inter={}ns bw_inter~{:.2}GB/s core={:.1}GFLOP/s",
        c.l_intra_ns,
        c.gap_intra_ns,
        c.l_inter_ns,
        c.gap_nic_ns,
        c.o_inter_ns,
        1000.0 / c.g_inter_ps_per_byte as f64,
        c.flops_per_us as f64 / 1000.0,
    );
}

/// [`print_cost_preamble`] for the benches that execute `caf-hpl`: also
/// names the local compute kernel the host dispatched to, so a wall-clock
/// GFLOP/s figure can be traced to the code that produced it.
pub fn print_hpl_preamble(label: &str) {
    print_cost_preamble(label);
    println!("[{label}] local kernel: {}", caf_hpl::blas::kernel_name());
}

/// Image 1's view of one modeled HPL factorization.
pub struct ModeledHpl {
    /// Virtual nanoseconds between the factorization's barriers.
    pub time_ns: u64,
    /// Modeled GFLOP/s.
    pub gflops: f64,
    /// `time_ns` split by step of the block loop.
    pub phase_ns: PhaseNs,
}

/// One modeled HPL factorization of EXP-F1: `images` images on `nodes`
/// whale nodes (block placement), matrix seed 2015, `nb = 64` capped at
/// `n / 4`, run on SimFabric under comparator `c`.
pub fn modeled_hpl(images: usize, nodes: usize, n: usize, c: &Comparator) -> ModeledHpl {
    let per_node = images / nodes;
    let map = ImageMap::new(presets::whale(), images, &Placement::Block { per_node });
    let fabric = SimFabric::new(
        map,
        SimConfig {
            cost: presets::whale_cost(),
            overheads: c.stack,
            ..SimConfig::default()
        },
    );
    let hpl = HplConfig {
        n,
        nb: 64.min(n / 4).max(8),
        seed: 2015,
    };
    let mut per_image = run_on_fabric(fabric, c.collectives, move |img| {
        let out = factorize(img, &hpl);
        ModeledHpl {
            time_ns: out.time_ns,
            gflops: out.gflops(),
            phase_ns: out.phase_ns,
        }
    });
    per_image.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_lists_cover_the_paper() {
        let b = barrier_comparators();
        assert_eq!(b.len(), 8);
        assert!(b.iter().any(|c| c.name == "UHCAF-TDLB"));
        assert!(b.iter().any(|c| c.name == "GASNet-IB"));
        let h = hpl_comparators();
        assert_eq!(h.len(), 5, "Figure 1 has five curves");
        assert!(h.iter().any(|c| c.name == "CAF2.0-GFortran"));
    }

    #[test]
    fn scaled_honors_quick_env() {
        // Not setting the env var here; default is full scale.
        if !quick_mode() {
            assert_eq!(scaled(10, 2), 10);
        }
    }
}
