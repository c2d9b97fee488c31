//! EXP-G1 (extension) — the paper's methodology applied to gather/scatter.
//!
//! The paper treats barrier, all-to-all reduction, and one-to-all
//! broadcast; gather and scatter are the natural next collectives (and
//! what OpenSHMEM teams provide). The two-level variants route one message
//! per node through the leaders; this harness measures what that buys at
//! the paper's scales, completing the ablation story of §IV.
//!
//! Results go to `BENCH_gather.json` (override with `CAF_BENCH_OUT`): one
//! row per image count (the `bytes` slot) and algorithm, in modeled
//! nanoseconds per round, so every row must diff at +0.00 % against the
//! committed baseline. The acceptance check: two-level beats flat by at
//! least 2× at every scale.

use caf_bench::results::{self, Meta, Rec, Surface};
use caf_bench::{print_cost_preamble, scaled};
use caf_fabric::{SimConfig, SimFabric};
use caf_microbench::{report, Table};
use caf_runtime::{run_on_fabric, CollectiveConfig, GatherAlgo};
use caf_topology::{presets, ImageMap, Placement};

fn latency(images: usize, per_node: usize, elems: usize, algo: GatherAlgo, iters: usize) -> f64 {
    let stack = match algo {
        GatherAlgo::TwoLevel => presets::stacks::UHCAF,
        _ => presets::stacks::UHCAF_FLAT,
    };
    let map = ImageMap::new(presets::whale(), images, &Placement::Block { per_node });
    let fabric = SimFabric::new(
        map,
        SimConfig {
            cost: presets::whale_cost(),
            overheads: stack,
            ..SimConfig::default()
        },
    );
    let cfg = CollectiveConfig {
        gather: algo,
        ..CollectiveConfig::default()
    };
    let spans = run_on_fabric(fabric, cfg, move |img| {
        let mine = vec![img.this_image() as u64; elems];
        let mut out = vec![0u64; elems];
        for w in 0..3 {
            let root = w % img.num_images() + 1;
            let g = img.co_gather(&mine, root);
            let all = g.map(|v| v.iter().map(|x| x * 2).collect::<Vec<_>>());
            img.co_scatter(all.as_deref(), &mut out, root);
        }
        img.sync_all();
        let t0 = img.now_ns();
        for i in 0..iters {
            let root = i % img.num_images() + 1;
            let g = img.co_gather(&mine, root);
            let all = g.map(|v| v.to_vec());
            img.co_scatter(all.as_deref(), &mut out, root);
        }
        (t0, img.now_ns())
    });
    let start = spans.iter().map(|s| s.0).min().expect("images");
    let end = spans.iter().map(|s| s.1).max().expect("images");
    (end - start) as f64 / iters as f64
}

fn main() {
    print_cost_preamble("EXP-G1");
    let iters = scaled(8, 3);
    let sizes: Vec<usize> = if caf_bench::quick_mode() {
        vec![16, 64]
    } else {
        vec![16, 64, 128, 256]
    };
    let mut t = Table::new(
        "EXP-G1 (extension): gather+scatter round, 8 elements, 8 images/node (modeled us)",
        &["images(nodes)", "two-level", "flat-linear", "speedup"],
    );
    let mut recs = Vec::new();
    let mut worst = f64::INFINITY;
    for &n in &sizes {
        let two = latency(n, 8, 8, GatherAlgo::TwoLevel, iters);
        let flat = latency(n, 8, 8, GatherAlgo::FlatLinear, iters);
        t.row(&[
            format!("{}({})", n, n / 8),
            report::us(two),
            report::us(flat),
            report::speedup(flat, two),
        ]);
        for (algo, ns) in [("two_level", two), ("flat_linear", flat)] {
            recs.push(Rec {
                op: "gather_scatter",
                bytes: n,
                algo: algo.into(),
                ns,
            });
        }
        worst = worst.min(flat / two);
    }
    t.note("one inter-node message per node (leaders) vs one per image (flat)");
    t.print();

    results::write(
        &Surface {
            experiment: "exp_g1_gather",
            file: "BENCH_gather.json",
            header: &[
                ("machine", Meta::Str("whale")),
                ("per_node", Meta::Num(8)),
                ("elems", Meta::Num(8)),
            ],
            unit: "modeled_ns_per_round",
            ns_decimals: 3,
        },
        &recs,
    );

    assert!(
        worst >= 2.0,
        "two-level gather+scatter is only {worst:.2}x flat (need >= 2x at every scale)"
    );
    println!("acceptance: two-level is at least {worst:.1}x flat -- PASS");
}
