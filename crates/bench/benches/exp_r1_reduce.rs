//! EXP-R1 — all-to-all reduction (`co_sum`), §V-A / §VII:
//!
//! > "getting up to … 74-fold performance improvement[ ] over the default
//! > approach" (reduction, §VII)
//!
//! Two sweeps at 8 images/node: team-size scaling at a small payload
//! (latency-bound, where the hierarchy win is largest) and payload scaling
//! at the largest team. The "default approach" is the 1-level flat
//! recursive-doubling allreduce on the UHCAF stack. A third sweep (EXP-R1c)
//! stays on one node, 2 to 8 images, where the two-level scheme has only
//! its intra-node level.

use caf_bench::{print_cost_preamble, scaled};
use caf_microbench::{allreduce_latency, report, MicroConfig, Table};
use caf_runtime::{CollectiveConfig, ReduceAlgo};
use caf_topology::presets::stacks;

/// Flat algorithms run on the 1-level runtime (UHCAF_FLAT: no shared-memory
/// exploitation), the two-level algorithm on the hierarchy-aware runtime —
/// the same pairing the paper measures as "default" vs "our approach".
fn run(n: usize, elems: usize, algo: ReduceAlgo, iters: usize) -> f64 {
    let stack = match algo {
        ReduceAlgo::TwoLevel => stacks::UHCAF,
        _ => stacks::UHCAF_FLAT,
    };
    let mut mc = MicroConfig::whale(n, 8)
        .with_stack(stack)
        .with_collectives(CollectiveConfig {
            reduce: algo,
            ..CollectiveConfig::default()
        });
    mc.iters = iters;
    allreduce_latency(&mc, elems).ns_per_op
}

fn main() {
    print_cost_preamble("EXP-R1");
    let iters = scaled(10, 3);
    let sizes: Vec<usize> = if caf_bench::quick_mode() {
        vec![16, 64]
    } else {
        vec![16, 32, 64, 128, 256, 352]
    };

    let mut t1 = Table::new(
        "EXP-R1a: co_sum latency vs team size, 1 element, 8 images/node (modeled us)",
        &[
            "images(nodes)",
            "two-level",
            "flat-recdbl",
            "flat-binomial",
            "speedup",
        ],
    );
    let mut best: f64 = 0.0;
    for &n in &sizes {
        let two = run(n, 1, ReduceAlgo::TwoLevel, iters);
        let flat = run(n, 1, ReduceAlgo::FlatRecursiveDoubling, iters);
        let bino = run(n, 1, ReduceAlgo::FlatBinomial, iters);
        best = best.max(flat / two);
        t1.row(&[
            format!("{}({})", n, n / 8),
            report::us(two),
            report::us(flat),
            report::us(bino),
            report::speedup(flat, two),
        ]);
    }
    t1.note(format!(
        "measured max two-level speedup over flat: {best:.1}x (paper: up to 74x)"
    ));
    t1.print();

    let n = scaled(256, 64);
    let mut t2 = Table::new(
        format!(
            "EXP-R1b: co_sum latency vs payload, {n} images ({} nodes)",
            n / 8
        ),
        &["elements(f64)", "two-level", "flat-recdbl", "speedup"],
    );
    for &elems in &[1usize, 16, 128, 1024, 4096] {
        let two = run(n, elems, ReduceAlgo::TwoLevel, iters);
        let flat = run(n, elems, ReduceAlgo::FlatRecursiveDoubling, iters);
        t2.row(&[
            elems.to_string(),
            report::us(two),
            report::us(flat),
            report::speedup(flat, two),
        ]);
    }
    t2.note("hierarchy advantage shrinks as payload bandwidth dominates latency");
    t2.print();

    // One node: both columns on the hierarchy-aware stack, so they differ
    // by algorithm only.
    let one_node = |n: usize, elems: usize, reduce: ReduceAlgo| {
        let mut mc = MicroConfig::whale(n, 8).with_collectives(CollectiveConfig {
            reduce,
            ..CollectiveConfig::two_level()
        });
        mc.iters = iters;
        allreduce_latency(&mc, elems).ns_per_op
    };
    let mut t3 = Table::new(
        "EXP-R1c: co_sum latency on one node, two-level runtime vs flat recursive doubling \
         (modeled us)",
        &[
            "images(nodes)",
            "elements(f64)",
            "two-level",
            "flat-recdbl",
            "two-level vs recdbl",
        ],
    );
    for n in 2..=8 {
        for elems in [1usize, 160] {
            let two = one_node(n, elems, ReduceAlgo::TwoLevel);
            let flat = one_node(n, elems, ReduceAlgo::FlatRecursiveDoubling);
            t3.row(&[
                format!("{n}(1)"),
                elems.to_string(),
                report::us(two),
                report::us(flat),
                format!("{:+.1}%", (two / flat - 1.0) * 100.0),
            ]);
        }
    }
    t3.note(
        "a one-node team of 2, 4 or 8 resolves two-level to recursive doubling; \
         3 and 5-7 run the linear gather, combine and star release",
    );
    t3.print();
}
