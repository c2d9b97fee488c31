//! Traced barrier episodes on the 4-node x 4-core `mini` machine.
//!
//! Runs a pure dissemination barrier and a TDLB barrier over 16 simulated
//! images with a tracer installed, then shows all three observability
//! surfaces: the per-episode flag-notification count against the paper's
//! closed form, the per-phase latency table, and the critical path of the
//! TDLB leader dissemination (⌈log₂ 4⌉ = 2 inter-node hops). The full
//! TDLB trace is also written as Chrome trace-event JSON for Perfetto.
//!
//! ```sh
//! cargo run --example trace_barrier [out.trace.json]
//! ```

use caf::fabric::{SimConfig, SimFabric};
use caf::microbench::trace_table;
use caf::runtime::{run_on_fabric, BarrierAlgo, CollectiveConfig};
use caf::topology::{presets, ImageMap, Placement, ProcId};
use caf::trace::{chrome_trace_json, extract, phase_window, Event, EventKind, Tracer};

const IMAGES: usize = 16;
const NODES: usize = 4;

/// Run `episodes` barrier episodes under `algo` and return the trace.
fn traced_run(algo: BarrierAlgo, episodes: usize) -> Vec<Event> {
    let map = image_map();
    let tracer = Tracer::for_images(IMAGES);
    let fabric = SimFabric::new(
        map,
        SimConfig {
            tracer: tracer.clone(),
            ..SimConfig::default()
        },
    );
    let cfg = CollectiveConfig {
        barrier: algo,
        ..CollectiveConfig::default()
    };
    run_on_fabric(fabric, cfg, move |img| {
        for _ in 0..episodes {
            img.sync_all();
        }
    });
    tracer.events()
}

fn image_map() -> ImageMap {
    ImageMap::new(
        presets::mini(NODES, IMAGES / NODES),
        IMAGES,
        &Placement::Block {
            per_node: IMAGES / NODES,
        },
    )
}

fn flag_adds(events: &[Event]) -> usize {
    events
        .iter()
        .filter(|e| e.kind == EventKind::FlagAdd)
        .count()
}

fn main() {
    // 1. Dissemination barrier vs the closed form n * ceil(log2 n).
    // Two deterministic runs differing only in episode count, so team
    // formation traffic cancels out of the difference.
    let d = 3;
    let base = flag_adds(&traced_run(BarrierAlgo::Dissemination, 2));
    let more = flag_adds(&traced_run(BarrierAlgo::Dissemination, 2 + d));
    let per_episode = (more - base) / d;
    println!(
        "dissemination barrier on {IMAGES} images: {per_episode} flag \
         notifications per episode (closed form n*ceil(log2 n) = {})",
        IMAGES * IMAGES.next_power_of_two().trailing_zeros() as usize
    );

    // 2. TDLB barrier: phase latency table from the same trace.
    let events = traced_run(BarrierAlgo::Tdlb, 4);
    println!();
    trace_table("trace_barrier: TDLB phase latencies", &events).print();

    // 3. Critical path of the last leader-dissemination phase. The
    //    phase window (latest entry .. latest exit) isolates the
    //    dissemination rounds: ceil(log2 nodes) inter-node hops.
    let last_epoch = events
        .iter()
        .filter(|e| e.kind == EventKind::TdlbDissem)
        .map(|e| e.c)
        .max()
        .expect("TDLB episodes traced");
    let cp = phase_window(&events, EventKind::TdlbDissem, last_epoch)
        .and_then(|w| extract(&events, w))
        .expect("critical path");
    println!();
    print!("{}", cp.render());

    // 4. Chrome trace-event JSON: load in Perfetto (ui.perfetto.dev) or
    //    chrome://tracing; images are grouped into one process per node.
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_barrier.trace.json".into());
    let map = image_map();
    let json = chrome_trace_json(&events, |i| map.node_of(ProcId(i)).index());
    std::fs::write(&out, &json).expect("write trace file");
    println!(
        "\nwrote {} ({} events, {} bytes)",
        out,
        events.len(),
        json.len()
    );
}
