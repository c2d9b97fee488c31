//! EXP-A1 — notification-count accounting (ablation of §IV-A's analysis).
//!
//! The paper's methodology is justified arithmetically: dissemination costs
//! n·⌈log₂ n⌉ notifications (all serialized in the worst shared-memory
//! case), a centralized linear barrier 2(n−1), and TDLB moves all but
//! L·⌈log₂ L⌉ of them (L = nodes) onto intra-node paths. This harness
//! counts the actual fabric traffic per barrier episode and checks it
//! against those closed forms.

use caf_bench::print_cost_preamble;
use caf_fabric::{Fabric, SimConfig, SimFabric, StatsSnapshot};
use caf_microbench::Table;
use caf_runtime::{run_on_fabric, BarrierAlgo, CollectiveConfig};
use caf_topology::{presets, ImageMap, Placement};

/// Traffic snapshot of a fresh run with `episodes` barriers.
fn total(images: usize, per_node: usize, algo: BarrierAlgo, episodes: usize) -> StatsSnapshot {
    let map = ImageMap::new(presets::whale(), images, &Placement::Block { per_node });
    let fabric = SimFabric::new(map, SimConfig::default());
    let cfg = CollectiveConfig {
        barrier: algo,
        ..CollectiveConfig::default()
    };
    run_on_fabric(fabric.clone(), cfg, move |img| {
        for _ in 0..episodes {
            img.sync_all();
        }
    });
    fabric.stats().snapshot()
}

/// Notifications per barrier episode, split (intra, inter). The simulator
/// is deterministic, so two runs differing by exactly `d` episodes differ
/// by exactly `d` episodes of traffic — an exact per-episode count with no
/// windowing error. The snapshot difference is one `-` thanks to
/// `StatsSnapshot`'s `Sub` impl.
fn count(images: usize, per_node: usize, algo: BarrierAlgo) -> (u64, u64) {
    let d = 4u64;
    let per_episode =
        total(images, per_node, algo, 2 + d as usize) - total(images, per_node, algo, 2);
    (per_episode.flags_intra / d, per_episode.flags_inter / d)
}

fn ceil_log2(n: usize) -> u64 {
    caf_topology::tree::ceil_log2(n) as u64
}

fn main() {
    print_cost_preamble("EXP-A1");
    let configs: &[(usize, usize)] = &[(16, 8), (64, 8), (256, 8), (16, 1), (44, 1)];

    let mut table = Table::new(
        "EXP-A1: notifications per barrier episode (measured vs closed form)",
        &[
            "images(per-node)",
            "algo",
            "intra",
            "inter",
            "total",
            "closed-form",
        ],
    );
    for &(n, per_node) in configs {
        let nodes = n / per_node;
        for (algo, name, expect) in [
            (
                BarrierAlgo::Dissemination,
                "dissemination",
                (n as u64) * ceil_log2(n),
            ),
            (
                BarrierAlgo::CentralCounter,
                "central-linear",
                2 * (n as u64 - 1),
            ),
            (
                BarrierAlgo::Tdlb,
                "TDLB",
                2 * (n as u64 - nodes as u64) + (nodes as u64) * ceil_log2(nodes),
            ),
        ] {
            let (intra, inter) = count(n, per_node, algo);
            let total = intra + inter;
            assert_eq!(
                total, expect,
                "{name} on {n} images ({per_node}/node): measured {total}, closed form {expect}"
            );
            table.row(&[
                format!("{n}({per_node})"),
                name.to_string(),
                intra.to_string(),
                inter.to_string(),
                total.to_string(),
                expect.to_string(),
            ]);
        }
    }
    table.note("TDLB closed form: 2(n - L) intra + L*ceil(log2 L) inter, L = nodes");
    table.note("all measured counts matched their closed forms (asserted)");
    table.print();
}
