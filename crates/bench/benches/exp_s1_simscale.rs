//! EXP-S1-simscale — simulator throughput at fleet scale: the one-queue
//! event core (events and image turns in one radix-bucketed monotone
//! queue, `caf_fabric::evq`) vs the pre-scale global heap + O(n) argmin
//! scans, driven through the hosted-image stepper
//! ([`caf_fabric::run_stepped`]) so fleet sizes are bounded by memory, not
//! OS threads.
//!
//! Three synchronization kernels (dissemination barrier, binomial
//! broadcast, binomial reduce) run at 1k/10k (quick) and up to 1M images
//! (full). Each point reports the *deterministic* simulated makespan
//! (`sharded_virt` rows — bit-for-bit reproducible, gated at the default
//! 10% by `cargo xtask bench-diff`) and the wall-clock cost per simulated
//! op (`*_wall` rows — host-noisy, gated loosely via `--wall-tolerance`).
//! A point shorter than [`MIN_TIMED_S`] is repeated until that much wall
//! time has been spent on it and reports its best repetition: a 1k-image
//! kernel is ~10 ms of work, and one shot of that reads anywhere within
//! ±25 % on a shared host. At 10k images the legacy core
//! (`SimConfig::legacy_queue`) runs the same kernels as the speedup
//! reference, and its virtual makespans are asserted bit-identical to the
//! default core's. The `sharded_*` row names predate the one-queue core
//! (they date from the per-node event shards it replaced) and are kept so
//! the bench-diff history of each row continues.
//!
//! Results go to `BENCH_simscale.json` (override with `CAF_BENCH_OUT`);
//! CI reruns the quick points and diffs against the committed baseline.

use caf_bench::results::{self, Meta, Rec, Surface};
use caf_bench::{print_cost_preamble, quick_mode};
use caf_fabric::stepper::kernels::{BinomialBroadcast, BinomialReduce, DisseminationBarrier};
use caf_fabric::{run_stepped, ChaosConfig, SimConfig, SimFabric, StepOp, StepProgram};
use caf_microbench::Table;
use caf_topology::{presets, ImageMap, Placement, SoftwareOverheads};
use std::sync::Arc;
use std::time::Instant;

/// One hosted image running one of the three kernels.
enum Kern {
    Barrier(DisseminationBarrier),
    Bcast(BinomialBroadcast),
    Reduce(BinomialReduce),
}

impl StepProgram for Kern {
    fn next(&mut self) -> StepOp {
        match self {
            Kern::Barrier(p) => p.next(),
            Kern::Bcast(p) => p.next(),
            Kern::Reduce(p) => p.next(),
        }
    }
}

const KERNELS: [&str; 3] = ["barrier", "broadcast", "reduce"];

fn programs(kernel: &str, n: usize, epochs: u64) -> Vec<Kern> {
    (0..n)
        .map(|me| match kernel {
            "barrier" => Kern::Barrier(DisseminationBarrier::new(me, n, epochs)),
            "broadcast" => Kern::Bcast(BinomialBroadcast::new(me, n, epochs)),
            "reduce" => Kern::Reduce(BinomialReduce::new(me, n, epochs)),
            other => unreachable!("unknown kernel {other}"),
        })
        .collect()
}

/// A synthetic fat cluster: 512 images per node, as many nodes as the
/// fleet needs. Capped bootstrap slots keep the segment footprint linear
/// in the fleet (the kernels touch only the first few slots).
fn fabric(n: usize, legacy: bool, chaos_seed: Option<u64>) -> Arc<SimFabric> {
    let per_node = 512usize;
    let nodes = n.div_ceil(per_node).max(2);
    let map = ImageMap::new(
        presets::mini(nodes, per_node),
        n,
        &Placement::Block { per_node },
    );
    SimFabric::new(
        map,
        SimConfig {
            cost: presets::whale_cost(),
            overheads: SoftwareOverheads::NONE,
            chaos: chaos_seed.map(ChaosConfig::from_seed),
            legacy_queue: legacy,
            bootstrap_slots: Some(4),
            ..SimConfig::default()
        },
    )
}

struct Point {
    virt_ns: u64,
    total_ops: u64,
    /// Wall time of the best repetition.
    wall_s: f64,
    ops_per_s: f64,
}

/// A point is repeated until this much wall time has gone into it.
const MIN_TIMED_S: f64 = 0.2;

fn run_point(kernel: &str, n: usize, legacy: bool, chaos_seed: Option<u64>) -> Point {
    let epochs = if n >= 100_000 { 1 } else { 2 };
    let (mut spent_s, mut best): (f64, Option<Point>) = (0.0, None);
    while spent_s < MIN_TIMED_S {
        let f = fabric(n, legacy, chaos_seed);
        let progs = programs(kernel, n, epochs);
        let t0 = Instant::now();
        let report = run_stepped(&f, progs);
        let wall_s = t0.elapsed().as_secs_f64();
        spent_s += wall_s;
        if let Some(b) = &best {
            assert_eq!(
                (b.virt_ns, b.total_ops),
                (report.max_time_ns, report.total_ops()),
                "{kernel}@{n}: two repetitions of one point disagree"
            );
        }
        if best.as_ref().is_none_or(|b| wall_s < b.wall_s) {
            best = Some(Point {
                virt_ns: report.max_time_ns,
                total_ops: report.total_ops(),
                wall_s,
                ops_per_s: report.total_ops() as f64 / wall_s.max(1e-9),
            });
        }
    }
    best.expect("at least one repetition")
}

fn human(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{}M", n / 1_000_000)
    } else {
        format!("{}k", n / 1_000)
    }
}

fn main() {
    print_cost_preamble("EXP-S1-simscale");
    let scales: Vec<usize> = if quick_mode() {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 100_000, 1_000_000]
    };
    let mut recs: Vec<Rec> = Vec::new();
    let mut t = Table::new(
        "EXP-S1-simscale: hosted-image stepping, one-queue event core (legacy \
         reference at 10k images)"
            .to_string(),
        &[
            "kernel",
            "images",
            "sim ops",
            "virt ms",
            "wall s",
            "Mops/s",
            "legacy Mops/s",
            "speedup",
        ],
    );
    let mut min_speedup_10k = f64::INFINITY;
    for &n in &scales {
        for kernel in KERNELS {
            let p = run_point(kernel, n, false, None);
            recs.push(Rec {
                op: kernel,
                bytes: n,
                algo: "sharded_virt".into(),
                ns: p.virt_ns as f64,
            });
            recs.push(Rec {
                op: kernel,
                bytes: n,
                algo: "sharded_wall".into(),
                ns: p.wall_s * 1e9 / p.total_ops as f64,
            });
            // The pre-PR core is only affordable (and only interesting) at
            // the 10k reference point: O(n) argmin scans per commit.
            let legacy = (n == 10_000).then(|| run_point(kernel, n, true, None));
            let (legacy_col, speedup_col) = match &legacy {
                Some(l) => {
                    assert_eq!(
                        l.virt_ns, p.virt_ns,
                        "{kernel}@{n}: legacy and one-queue cores disagree on the simulated makespan"
                    );
                    recs.push(Rec {
                        op: kernel,
                        bytes: n,
                        algo: "legacy_wall".into(),
                        ns: l.wall_s * 1e9 / l.total_ops as f64,
                    });
                    let speedup = p.ops_per_s / l.ops_per_s;
                    min_speedup_10k = min_speedup_10k.min(speedup);
                    (
                        format!("{:.2}", l.ops_per_s / 1e6),
                        format!("{speedup:.1}x"),
                    )
                }
                None => ("-".into(), "-".into()),
            };
            t.row(&[
                kernel.to_string(),
                human(n),
                p.total_ops.to_string(),
                format!("{:.2}", p.virt_ns as f64 / 1e6),
                format!("{:.2}", p.wall_s),
                format!("{:.2}", p.ops_per_s / 1e6),
                legacy_col,
                speedup_col,
            ]);
        }
    }
    // Chaos smoke: the perturbed scheduler through the stepped driver is
    // part of the tracked surface too (deterministic per seed, so the
    // makespan is gateable like any virt row). Its wall cost is a row of
    // its own: seed 42 reshuffles priorities every few commits, a path the
    // plain points never take, and a slowdown there moves no virt row.
    let chaos = run_point("barrier", 1_000, false, Some(42));
    recs.push(Rec {
        op: "barrier",
        bytes: 1_000,
        algo: "sharded_chaos_virt".into(),
        ns: chaos.virt_ns as f64,
    });
    recs.push(Rec {
        op: "barrier",
        bytes: 1_000,
        algo: "sharded_chaos_wall".into(),
        ns: chaos.wall_s * 1e9 / chaos.total_ops as f64,
    });
    t.note(format!(
        "chaos seed 42, barrier @1k: virt {:.2} ms, {:.2} Mops/s",
        chaos.virt_ns as f64 / 1e6,
        chaos.ops_per_s / 1e6
    ));
    t.print();

    results::write(
        &Surface {
            experiment: "exp_s1_simscale",
            file: "BENCH_simscale.json",
            header: &[
                ("machine", Meta::Str("synthetic-512-per-node")),
                ("per_node", Meta::Num(512)),
            ],
            unit: "virt_rows_modeled_makespan_ns_wall_rows_wall_ns_per_op",
            ns_decimals: 3,
        },
        &recs,
    );

    if !quick_mode() {
        assert!(
            min_speedup_10k >= 5.0,
            "one-queue core throughput speedup {min_speedup_10k:.2}x at 10k images \
             misses the 5x target over the pre-scale core"
        );
        println!(
            "acceptance: 100k/1M points completed, one queue >={min_speedup_10k:.1}x \
             legacy ops/sec at 10k images -- PASS"
        );
    }
}
