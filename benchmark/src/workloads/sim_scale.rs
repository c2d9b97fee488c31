//! `sim-scale`: hosted-image stepping at 100 000 images on one OS thread.
//!
//! `fabric::{evq,sched,stepper,sim}` do all the work: the benchmark's own
//! dissemination barrier (see `steps.rs`) is stepped on the synthetic
//! 512-images-per-node cluster, one barrier episode per repetition, as
//! many repetitions as fit. Throughput is simulated operations per wall
//! second; the simulated makespan is an output to check — it must equal
//! the committed 100k-image row of BENCH_simscale.json exactly, and the
//! op count must equal the closed form. The traced run adds the binomial
//! broadcast and reduce and the event-core counters.

use crate::stats;
use crate::steps::{self, expected_total_ops, programs, scale_fabric, Kernel};
use crate::workloads::{Params, Report};
use caf_fabric::{run_stepped, Fabric};
use std::time::Instant;

pub const IMAGES: usize = 100_000;
/// BENCH_simscale.json: barrier / 100000 / sharded_virt (one epoch).
pub const BARRIER_100K_VIRT_NS: u64 = 1_714_988;
pub const BCAST_100K_VIRT_NS: u64 = 1_362_919;
pub const REDUCE_100K_VIRT_NS: u64 = 1_286_988;

struct Stepped {
    setup_s: f64,
    ops_per_s: f64,
    virt_ns: u64,
    events_per_op: f64,
    commits: u64,
    queue_hwm: u64,
    wakeups: u64,
}

/// Build the fabric and the programs (set-up), then step one kernel to
/// completion (timed). Operation count and makespan are checked here.
fn step(
    r: &mut Report,
    kernel: Kernel,
    n: usize,
    epochs: u64,
    committed_virt_ns: Option<u64>,
) -> Stepped {
    let t0 = Instant::now();
    let fabric = scale_fabric(n);
    let progs = programs(kernel, n, epochs);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = run_stepped(&fabric, progs);
    let wall_s = t1.elapsed().as_secs_f64();
    let s = fabric.stats().snapshot();

    let want_ops = expected_total_ops(kernel, n, epochs);
    r.attempted += want_ops;
    if report.total_ops() != want_ops {
        r.fail(
            report.total_ops().abs_diff(want_ops),
            format!(
                "{kernel:?}@{n}: stepped {} ops, closed form says {want_ops}",
                report.total_ops()
            ),
        );
    }
    if committed_virt_ns.is_some_and(|want| report.max_time_ns != want) {
        r.fail(
            1,
            format!(
                "{kernel:?}@{n}: simulated makespan {} ns, committed {committed_virt_ns:?} ns \
                 (modeled drift must be zero)",
                report.max_time_ns
            ),
        );
    }
    Stepped {
        setup_s,
        ops_per_s: report.total_ops() as f64 / wall_s,
        virt_ns: report.max_time_ns,
        events_per_op: s.sim_events_pushed as f64 / report.total_ops() as f64,
        commits: s.sim_commits,
        queue_hwm: s.sim_queue_hwm,
        wakeups: s.sim_wakeups,
    }
}

pub fn run(p: &Params) -> Report {
    let mut r = Report::default();
    let started = Instant::now();
    // Start-up guard: the local programs and the cost model still give
    // the committed 10k-image, two-epoch makespan.
    step(
        &mut r,
        Kernel::Barrier,
        10_000,
        2,
        Some(steps::BARRIER_10K_VIRT_NS),
    );
    let guard_done = started.elapsed();
    // The self-test scale steps 5 000 images, where nothing is committed.
    let images = if p.smoke { IMAGES / 20 } else { IMAGES };
    let pin = |committed: u64| (!p.smoke).then_some(committed);

    let mut reps = Vec::new();
    let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
    // Stop when one more episode would overrun the run's time.
    let fits = |done: usize| {
        let guard_s = guard_done.as_secs_f64();
        let per_episode = (started.elapsed().as_secs_f64() - guard_s) / done as f64;
        started.elapsed().as_secs_f64() + per_episode < budget
    };
    while reps.is_empty() || fits(reps.len()) {
        reps.push(step(
            &mut r,
            Kernel::Barrier,
            images,
            1,
            pin(BARRIER_100K_VIRT_NS),
        ));
    }
    r.setup_s = reps.iter().map(|s| s.setup_s).collect();
    r.throughput = reps.iter().map(|s| s.ops_per_s).collect();

    if p.trace {
        let bcast = step(&mut r, Kernel::Bcast, images, 1, pin(BCAST_100K_VIRT_NS));
        let reduce = step(&mut r, Kernel::Reduce, images, 1, pin(REDUCE_100K_VIRT_NS));
        let last = reps.last().expect("one repetition");
        r.layer("stepper.setup_ms", stats::median(&r.setup_s) * 1e3);
        r.layer("stepper.barrier_mops", stats::median(&r.throughput) / 1e6);
        r.layer("stepper.bcast_mops", bcast.ops_per_s / 1e6);
        r.layer("stepper.reduce_mops", reduce.ops_per_s / 1e6);
        r.layer("stepper.barrier_virt_us", last.virt_ns as f64 / 1e3);
        r.layer("sim.events_per_op", last.events_per_op);
        r.layer("sim.commits", last.commits as f64);
        r.layer("sim.queue_hwm", last.queue_hwm as f64);
        r.layer("sim.wakeups", last.wakeups as f64);
    }
    r
}
