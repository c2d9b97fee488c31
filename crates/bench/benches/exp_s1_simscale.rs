//! EXP-S1-simscale — the paper's collectives at fleet scale: the real
//! `caf-collectives` bodies, hosted ([`caf_collectives::hosted`]) and
//! stepped from one thread ([`caf_fabric::run_stepped`]), so fleet sizes
//! are bounded by memory, not OS threads. Nothing here is a re-encoding of
//! an algorithm: each point runs `TeamComm::barrier` / `co_broadcast` /
//! `co_sum` of a team configured for the algorithm the row names.
//!
//! The machine is whale-like — nodes of 2 sockets × 4 cores, 8 images per
//! node, whale's cost model — with as many nodes as the fleet needs. Every
//! barrier algorithm (TDLB and dissemination are the headline pair), the
//! flat-binomial and two-level 8-byte broadcasts and the flat
//! recursive-doubling and two-level 8-byte allreduces run at 1k/10k images
//! (quick) and 100k (full); the full run adds a 1M-image TDLB /
//! dissemination barrier. Each point reports the *deterministic* simulated
//! makespan (`*_virt` rows — bit-for-bit reproducible, gated at the default
//! 10% by `cargo xtask bench-diff`) and the wall-clock cost per simulated
//! op (`*_wall` rows — host-noisy, gated loosely via `--wall-tolerance`).
//! A point shorter than [`MIN_TIMED_S`] is repeated until that much wall
//! time has been spent on it and reports its best repetition: a 1k-image
//! barrier is a few ms of work, and one shot of that reads anywhere within
//! ±25 % on a shared host. At 10k images the legacy event core
//! (`SimConfig::legacy_queue`) runs the dissemination barrier as the
//! speedup reference, and its virtual makespan is asserted bit-identical
//! to the default core's.
//!
//! Results go to `BENCH_simscale.json` (override with `CAF_BENCH_OUT`);
//! CI reruns the quick points and diffs against the committed baseline.

use caf_bench::results::{self, Meta, Rec, Surface};
use caf_bench::{print_cost_preamble, quick_mode};
use caf_collectives::{
    hosted, BarrierAlgo, BcastAlgo, CollectiveConfig, Provisioned, ReduceAlgo, TeamComm,
};
use caf_fabric::{run_stepped, ChaosConfig, SimConfig, SimFabric};
use caf_microbench::Table;
use caf_topology::{presets, ImageMap, MachineModel, Placement, ProcId, SoftwareOverheads};
use std::sync::Arc;
use std::time::Instant;

const PER_NODE: usize = 8;

/// One row family: an operation and the algorithm its team is formed with.
#[derive(Clone, Copy)]
struct Case {
    op: &'static str,
    algo: &'static str,
    cfg: CollectiveConfig,
    /// Largest fleet the case runs at.
    up_to: usize,
}

fn cases() -> Vec<Case> {
    let base = CollectiveConfig::two_level();
    let barrier = |algo, barrier, up_to| Case {
        op: "barrier",
        algo,
        cfg: CollectiveConfig { barrier, ..base },
        up_to,
    };
    let bcast = |algo, bcast| Case {
        op: "broadcast",
        algo,
        cfg: CollectiveConfig { bcast, ..base },
        up_to: 100_000,
    };
    let reduce = |algo, reduce| Case {
        op: "allreduce",
        algo,
        cfg: CollectiveConfig { reduce, ..base },
        up_to: 100_000,
    };
    vec![
        barrier("tdlb", BarrierAlgo::Tdlb, 1_000_000),
        barrier("dissemination", BarrierAlgo::Dissemination, 1_000_000),
        barrier("tdlb_multilevel", BarrierAlgo::TdlbMultilevel, 100_000),
        barrier("binomial_tree", BarrierAlgo::BinomialTree, 100_000),
        barrier("central_counter", BarrierAlgo::CentralCounter, 100_000),
        bcast("two_level", BcastAlgo::TwoLevel),
        bcast("flat_binomial", BcastAlgo::FlatBinomial),
        reduce("two_level", ReduceAlgo::TwoLevel),
        reduce("flat_recursive_doubling", ReduceAlgo::FlatRecursiveDoubling),
    ]
}

/// The whale-like cluster: 8 images per node on 2 sockets × 4 cores, as
/// many nodes as the fleet needs, one bootstrap slot per image (hosted
/// teams are provisioned, so nothing is exchanged through it).
fn fabric(n: usize, legacy: bool, chaos_seed: Option<u64>) -> Arc<SimFabric> {
    let machine = MachineModel::new("whale-like", n.div_ceil(PER_NODE).max(2), 2, 4);
    let map = ImageMap::new(machine, n, &Placement::Block { per_node: PER_NODE });
    SimFabric::new(
        map,
        SimConfig {
            cost: presets::whale_cost(),
            overheads: SoftwareOverheads::NONE,
            chaos: chaos_seed.map(ChaosConfig::from_seed),
            legacy_queue: legacy,
            bootstrap_slots: Some(1),
            ..SimConfig::default()
        },
    )
}

/// One image's episode of `op`: 8-byte payloads, the broadcast root moving
/// on by one rank each episode.
fn episode(op: &'static str) -> impl FnMut(&mut TeamComm) + Clone {
    let mut e = 0;
    move |c: &mut TeamComm| {
        match op {
            "barrier" => c.barrier(),
            "broadcast" => c.co_broadcast(&mut [0u64], e % c.size()),
            "allreduce" => c.co_sum(&mut [0u64]),
            other => unreachable!("unknown op {other}"),
        }
        e += 1;
    }
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

fn run_point(case: &Case, n: usize, legacy: bool, chaos_seed: Option<u64>) -> Point {
    let epochs = if n >= 100_000 { 1 } else { 2 };
    let (mut spent_s, mut best): (f64, Option<Point>) = (0.0, None);
    while spent_s < MIN_TIMED_S {
        let f = fabric(n, legacy, chaos_seed);
        let payload = if case.op == "barrier" { 0 } else { 8 };
        let team = Provisioned::new(&*f, (0..n).map(ProcId).collect(), case.cfg, payload);
        let progs = hosted::fleet(&f, &team, epochs, episode(case.op));
        let t0 = Instant::now();
        let report = run_stepped(&f, progs);
        let wall_s = t0.elapsed().as_secs_f64();
        spent_s += wall_s;
        if let Some(b) = &best {
            assert_eq!(
                (b.virt_ns, b.total_ops),
                (report.max_time_ns, report.total_ops()),
                "{} {}@{n}: two repetitions of one point disagree",
                case.op,
                case.algo
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

/// The two rows of a point: its makespan and its wall cost per op.
fn rows(case: &Case, n: usize, tag: &str, p: &Point, recs: &mut Vec<Rec>) {
    recs.push(Rec {
        op: case.op,
        bytes: n,
        algo: format!("{}{tag}_virt", case.algo),
        ns: p.virt_ns as f64,
    });
    recs.push(Rec {
        op: case.op,
        bytes: n,
        algo: format!("{}{tag}_wall", case.algo),
        ns: p.wall_s * 1e9 / p.total_ops as f64,
    });
}

fn human(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{}M", n / 1_000_000)
    } else {
        format!("{}k", n / 1_000)
    }
}

/// This process's peak resident set so far, in MB (0 where `/proc` is not).
fn peak_rss_mb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kb = hwm.and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok());
    kb.unwrap_or(0) / 1024
}

fn main() {
    print_cost_preamble("EXP-S1-simscale");
    let scales: Vec<usize> = if quick_mode() {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 100_000, 1_000_000]
    };
    let cases = cases();
    let mut recs: Vec<Rec> = Vec::new();
    let mut t = Table::new(
        "EXP-S1-simscale: the real collectives, hosted and stepped from one thread \
         (whale-like, 8 images per node)"
            .to_string(),
        &[
            "op",
            "algorithm",
            "images",
            "sim ops",
            "virt ms",
            "wall s",
            "Mops/s",
        ],
    );
    let mut legacy_speedup = f64::NAN;
    for &n in &scales {
        for case in cases.iter().filter(|c| n <= c.up_to) {
            let p = run_point(case, n, false, None);
            rows(case, n, "", &p, &mut recs);
            t.row(&[
                case.op.to_string(),
                case.algo.to_string(),
                human(n),
                p.total_ops.to_string(),
                format!("{:.3}", p.virt_ns as f64 / 1e6),
                format!("{:.2}", p.wall_s),
                format!("{:.2}", p.ops_per_s / 1e6),
            ]);
            // The pre-scale core is only affordable (and only interesting)
            // at one reference point: O(n) argmin scans per commit.
            if (n, case.algo) == (10_000, "dissemination") {
                let l = run_point(case, n, true, None);
                assert_eq!(
                    l.virt_ns, p.virt_ns,
                    "legacy and one-queue cores disagree on the simulated makespan"
                );
                recs.push(Rec {
                    op: case.op,
                    bytes: n,
                    algo: format!("{}_legacy_wall", case.algo),
                    ns: l.wall_s * 1e9 / l.total_ops as f64,
                });
                legacy_speedup = p.ops_per_s / l.ops_per_s;
                t.note(format!(
                    "legacy event core, dissemination barrier @10k: {:.2} Mops/s, \
                     one queue {legacy_speedup:.1}x",
                    l.ops_per_s / 1e6
                ));
            }
        }
        t.note(format!(
            "peak RSS through {} images: {} MB",
            human(n),
            peak_rss_mb()
        ));
    }
    // Chaos smoke: the perturbed scheduler through the stepped driver is
    // part of the tracked surface too (deterministic per seed, so the
    // makespan is gateable like any virt row). Its wall cost is a row of
    // its own: seed 42 reshuffles priorities every few commits, a path the
    // plain points never take, and a slowdown there moves no virt row.
    let chaos = run_point(&cases[0], 1_000, false, Some(42));
    rows(&cases[0], 1_000, "_chaos", &chaos, &mut recs);
    t.note(format!(
        "chaos seed 42, tdlb barrier @1k: virt {:.3} ms, {:.2} Mops/s",
        chaos.virt_ns as f64 / 1e6,
        chaos.ops_per_s / 1e6
    ));
    t.print();

    results::write(
        &Surface {
            experiment: "exp_s1_simscale",
            file: "BENCH_simscale.json",
            header: &[
                ("machine", Meta::Str("whale-like-8-per-node")),
                ("per_node", Meta::Num(PER_NODE)),
            ],
            unit: "virt_rows_modeled_makespan_ns_wall_rows_wall_ns_per_op",
            ns_decimals: 3,
        },
        &recs,
    );

    if !quick_mode() {
        assert!(
            legacy_speedup >= 5.0,
            "one-queue core throughput speedup {legacy_speedup:.2}x at 10k images \
             misses the 5x target over the pre-scale core"
        );
        println!(
            "acceptance: 100k/1M points completed, one queue >={legacy_speedup:.1}x \
             legacy ops/sec at 10k images -- PASS"
        );
    }
}
