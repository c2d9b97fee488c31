//! EXP-B1 — barrier latency with dense nodes (8 images/node), §V-A.
//!
//! Paper claims reproduced here:
//! * TDLB yields **up to 26×** over the pure dissemination barrier that
//!   UHCAF previously used (abstract, §I, §VII);
//! * TDLB "is only **marginally more expensive** than the low-level
//!   dissemination algorithm implemented directly over the IB verbs"
//!   (§V-A) — compare the `UHCAF-TDLB` and `GASNet-IB` columns.
//!
//! Rows sweep the team size at 8 images per node on the modeled 44-node
//! cluster; entries are modeled microseconds per barrier.

use caf_bench::{barrier_comparators, print_cost_preamble, scaled};
use caf_microbench::{barrier_latency, report, trace_table, MicroConfig, Table};
use caf_trace::{episode_window, extract, EventKind, Tracer};

/// When `CAF_TRACE_DIR` names a directory, rerun a small TDLB sweep with
/// a tracer installed, dump the Chrome trace JSON there, and print the per-phase
/// latency table plus the final episode's critical path (see
/// EXPERIMENTS.md, "Reading a trace").
fn dump_trace(dir: &str, n: usize) {
    let tracer = Tracer::for_images(n);
    let mut mc = MicroConfig::whale(n, 8).with_tracer(tracer.clone());
    mc.warmup = 1;
    mc.iters = 4;
    barrier_latency(&mc);
    let events = tracer.events();
    std::fs::create_dir_all(dir).expect("create CAF_TRACE_DIR");
    let path = std::path::Path::new(dir).join(format!("exp_b1_tdlb_{n}images.trace.json"));
    let map = caf_topology::ImageMap::new(
        caf_topology::presets::whale(),
        n,
        &caf_topology::Placement::Block { per_node: 8 },
    );
    let json =
        caf_trace::chrome_trace_json(&events, |i| map.node_of(caf_topology::ProcId(i)).index());
    std::fs::write(&path, json).expect("write trace JSON");
    println!(
        "\nwrote Chrome trace ({} events) to {} (open in Perfetto / chrome://tracing)",
        events.len(),
        path.display()
    );
    trace_table("EXP-B1: traced barrier phase latencies", &events).print();
    let last_epoch = events
        .iter()
        .filter(|e| e.kind == EventKind::Barrier)
        .map(|e| e.c)
        .max()
        .unwrap_or(0);
    if let Some(cp) =
        episode_window(&events, EventKind::Barrier, last_epoch).and_then(|w| extract(&events, w))
    {
        print!("{}", cp.render());
    }
}

fn main() {
    print_cost_preamble("EXP-B1");
    let comps = barrier_comparators();
    let sizes: Vec<usize> = if caf_bench::quick_mode() {
        vec![16, 64]
    } else {
        vec![8, 16, 32, 64, 128, 256, 352]
    };
    let iters = scaled(10, 3);

    let mut headers: Vec<&str> = vec!["images(nodes)"];
    headers.extend(comps.iter().map(|c| c.name));
    headers.push("TDLB-speedup");
    let mut table = Table::new(
        "EXP-B1: barrier latency, 8 images/node (modeled us)",
        &headers,
    );

    let mut max_speedup: f64 = 0.0;
    let mut worst_vs_ib: f64 = 0.0;
    for &n in &sizes {
        let mut row = vec![format!("{}({})", n, n / 8)];
        let mut tdlb = f64::NAN;
        let mut uhcaf_dissem = f64::NAN;
        let mut gasnet_ib = f64::NAN;
        for c in &comps {
            let mut mc = MicroConfig::whale(n, 8)
                .with_stack(c.stack)
                .with_collectives(c.collectives);
            mc.iters = iters;
            let stats = barrier_latency(&mc);
            row.push(report::us(stats.ns_per_op));
            match c.name {
                "UHCAF-TDLB" => tdlb = stats.ns_per_op,
                "UHCAF-dissem" => uhcaf_dissem = stats.ns_per_op,
                "GASNet-IB" => gasnet_ib = stats.ns_per_op,
                _ => {}
            }
        }
        row.push(report::speedup(uhcaf_dissem, tdlb));
        max_speedup = max_speedup.max(uhcaf_dissem / tdlb);
        worst_vs_ib = worst_vs_ib.max(tdlb / gasnet_ib);
        table.row(&row);
    }
    table.note(format!(
        "measured max TDLB speedup over UHCAF dissemination: {max_speedup:.1}x \
         (paper: up to 26x)"
    ));
    table.note(format!(
        "TDLB vs GASNet-IB dissemination worst ratio: {worst_vs_ib:.2}x \
         (paper: 'only marginally more expensive')"
    ));
    table.print();

    if let Ok(dir) = std::env::var("CAF_TRACE_DIR") {
        dump_trace(&dir, 32);
    }
}
