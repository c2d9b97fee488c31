//! `paper-sim`: the paper's evaluation in virtual time.
//!
//! SimFabric with the whale cost model runs the real collective and HPL
//! code; `collectives` algorithm choice and the `topology` cost model
//! decide every number and the socket tiers none. The simulator is
//! deterministic, so the barrier/allreduce/broadcast latencies are
//! *outputs to check*, not timings to gate: each must stay within 0.5 % of
//! (or beat) the value committed in EXPERIMENTS.md / BENCH_collectives.json
//! or it counts as a failed operation. The workload's throughput is the
//! paper's Figure-1 quantity — HPL flops per *virtual* second, 16 images on
//! 2 nodes, N=1024, two-level collectives — on a matrix drawn from the
//! seed (pivoting, and with it the row-swap traffic, follows the matrix).
//!
//! The thread-per-image driver that runs all this spends seconds of
//! sys-time-dominated wall clock per 352-image run and lands in a fast or
//! a slow mode from run to run, so its wall numbers are diagnostics only.

use crate::host;
use crate::workloads::{Params, Report};
use caf_apps::cg::{cg_solve, CgConfig};
use caf_apps::jacobi2d::{jacobi2d, Jacobi2dConfig};
use caf_fabric::{Fabric, SimConfig, SimFabric, StatsSnapshot};
use caf_hpl::{factorize, HplConfig};
use caf_runtime::{run_on_fabric, BarrierAlgo, BcastAlgo, CollectiveConfig, ImageCtx, ReduceAlgo};
use caf_topology::{presets, ImageMap, Placement, SoftwareOverheads};
use std::sync::Arc;
use std::time::Instant;

/// Committed values this workload must reproduce (µs per operation).
/// TDLB and dissemination: EXP-B1, 352 images on 44 nodes (the table
/// prints them rounded, 31.63 and 167.60). Allreduce:
/// BENCH_collectives.json `allreduce`/8 B/`auto` at 352 images
/// (54572.667 ns). Broadcast: 1 MiB `Auto` at 64 images on 8 nodes — the
/// 352-image row (3056.93 µs) needs 352 MiB of payload buffers and half a
/// minute of wall clock, so the benchmark pins the 64(8) point instead.
const TDLB_REF_US: f64 = 31.6289;
const DISSEM_REF_US: f64 = 167.6030;
const ALLREDUCE8_REF_US: f64 = 54.572_667;
const BCAST1M_64_REF_US: f64 = 2961.732;
/// How far a deterministic result may sit above its committed value.
const DRIFT: f64 = 0.005;

/// Calls of the operation whose traffic is counted, after the timed ones.
const COUNTED: usize = 2;
/// Virtual idle time that fences the counted calls off from what runs
/// before and after them (far longer than any collective here).
const QUIET_GAP_NS: u64 = 50_000_000;

const HPL_IMAGES: usize = 16;
const HPL_N: usize = 1024;

/// One measured SimFabric run.
struct SimRun {
    /// Virtual µs per timed iteration (max end − min start over images).
    virt_us: f64,
    /// Host seconds for the whole run.
    wall_s: f64,
    commits: u64,
}

struct Launch {
    images: usize,
    per_node: usize,
    stack: SoftwareOverheads,
    collectives: CollectiveConfig,
    warmup: usize,
    iters: usize,
}

impl Launch {
    /// The paper's dense launch: 8 images per node on the whale cluster,
    /// UHCAF stack, three warm-up and ten timed iterations (the scaffold
    /// EXP-B1's committed rows were taken with).
    fn whale(images: usize) -> Launch {
        Launch {
            images,
            per_node: 8,
            stack: presets::stacks::UHCAF,
            collectives: CollectiveConfig::auto(),
            warmup: 3,
            iters: 10,
        }
    }

    fn fabric(&self) -> Arc<SimFabric> {
        let map = ImageMap::new(
            presets::whale(),
            self.images,
            &Placement::Block {
                per_node: self.per_node,
            },
        );
        SimFabric::new(
            map,
            SimConfig {
                cost: presets::whale_cost(),
                overheads: self.stack,
                ..SimConfig::default()
            },
        )
    }

    /// Warm up, line up, then time `iters` calls of `op` in virtual time
    /// — exactly the scaffold the committed rows were taken with, and
    /// nothing else: the modeled latency is sensitive to the traffic
    /// around the timed calls (early finishers' next operation contends
    /// with the stragglers' last one), so counting happens in a run of its
    /// own, [`Launch::count`].
    fn measure<F>(&self, op: F) -> SimRun
    where
        F: Fn(&mut ImageCtx, usize) + Send + Sync + 'static,
    {
        let t0 = Instant::now();
        let fabric = self.fabric();
        let stats = Arc::clone(&fabric);
        let (warmup, iters) = (self.warmup, self.iters);
        let spans = run_on_fabric(fabric, self.collectives, move |img| {
            for i in 0..warmup {
                op(img, i);
            }
            img.sync_all();
            let v0 = img.now_ns();
            for i in 0..iters {
                op(img, warmup + i);
            }
            (v0, img.now_ns())
        });
        let start = spans.iter().map(|s| s.0).min().expect("images");
        let end = spans.iter().map(|s| s.1).max().expect("images");
        SimRun {
            virt_us: (end - start) as f64 / iters as f64 / 1e3,
            wall_s: t0.elapsed().as_secs_f64(),
            commits: stats.stats().snapshot().sim_commits,
        }
    }

    /// Fabric traffic of one call of `op`, exact to the operation: after
    /// the warm-up, `COUNTED` calls fenced by idle gaps on both sides. The
    /// simulator commits in virtual-time order and every image idles after
    /// its snapshot, so whichever image snapshots last sees all of its
    /// peers' work so far and none of what follows the gap; counters only
    /// grow, so "last" is "largest".
    fn count<F>(&self, op: F) -> PerCall
    where
        F: Fn(&mut ImageCtx, usize) + Send + Sync + 'static,
    {
        let fabric = self.fabric();
        let stats = Arc::clone(&fabric);
        let warmup = self.warmup;
        let snaps = run_on_fabric(fabric, self.collectives, move |img| {
            for i in 0..warmup {
                op(img, i);
            }
            img.sync_all();
            let before = stats.stats().snapshot();
            img.compute(QUIET_GAP_NS);
            for i in 0..COUNTED {
                op(img, warmup + i);
            }
            let after = stats.stats().snapshot();
            img.compute(QUIET_GAP_NS);
            (before, after)
        });
        let last = |pick: fn(&(StatsSnapshot, StatsSnapshot)) -> StatsSnapshot| {
            snaps
                .iter()
                .map(pick)
                .max_by_key(|s| s.sim_commits)
                .expect("images")
        };
        let d = last(|s| s.1).since(&last(|s| s.0));
        let per = |n: u64| n as f64 / COUNTED as f64;
        PerCall {
            flags: per(d.flags_intra + d.flags_inter),
            inter_msgs: per(d.flags_inter + d.puts_inter),
            inter_bytes: per(d.bytes_inter),
            nb_puts: per(d.puts_nb_injected),
        }
    }
}

/// What one call of a collective puts on the fabric.
struct PerCall {
    flags: f64,
    /// Flag updates and puts that cross nodes.
    inter_msgs: f64,
    inter_bytes: f64,
    /// Nonblocking puts: the pipelined broadcast's chunks.
    nb_puts: f64,
}

fn barrier(images: usize, algo: BarrierAlgo, stack: SoftwareOverheads) -> Launch {
    Launch {
        stack,
        collectives: CollectiveConfig {
            barrier: algo,
            ..CollectiveConfig::default()
        },
        ..Launch::whale(images)
    }
}

fn sync_all(img: &mut ImageCtx, _: usize) {
    img.sync_all();
}

fn allreduce8(images: usize, algo: ReduceAlgo) -> Launch {
    Launch {
        collectives: CollectiveConfig {
            reduce: algo,
            ..CollectiveConfig::default()
        },
        warmup: 1,
        iters: 3,
        ..Launch::whale(images)
    }
}

fn co_sum8(img: &mut ImageCtx, _: usize) {
    let mut v = [1.0f64];
    img.co_sum(&mut v);
    assert_eq!(v[0], img.num_images() as f64, "allreduce corrupted");
}

fn bcast1m(images: usize, algo: BcastAlgo) -> Launch {
    Launch {
        collectives: CollectiveConfig {
            bcast: algo,
            ..CollectiveConfig::default()
        },
        warmup: 1,
        iters: 3,
        ..Launch::whale(images)
    }
}

fn co_broadcast1m(img: &mut ImageCtx, i: usize) {
    let mut v = vec![(i + 1) as f64; (1 << 20) / 8];
    img.co_broadcast(&mut v, 1);
    assert_eq!(v[v.len() - 1], (i + 1) as f64, "broadcast corrupted");
}

/// HPL on 16 images / 2 nodes in virtual time: flops per virtual second.
fn hpl_virt(n: usize, collectives: CollectiveConfig, seed: u64) -> f64 {
    let launch = Launch {
        collectives,
        ..Launch::whale(HPL_IMAGES)
    };
    let hpl = HplConfig {
        n,
        nb: 64.min(n / 4),
        seed,
    };
    run_on_fabric(launch.fabric(), collectives, move |img| {
        factorize(img, &hpl).gflops() * 1e9
    })[0]
}

/// A deterministic result above its committed value by more than `DRIFT`
/// is a failed operation: the modeled data path got slower.
fn pin(r: &mut Report, what: &str, got_us: f64, committed_us: f64) {
    r.attempted += 1;
    let within = got_us > 0.0 && got_us <= committed_us * (1.0 + DRIFT);
    if !within {
        r.fail(
            1,
            format!(
                "{what}: {got_us:.4} virtual us, committed {committed_us:.4} (+{DRIFT} allowed)"
            ),
        );
    }
}

pub fn run(p: &Params) -> Report {
    let mut r = Report::default();
    let cpu0 = host::cpu_seconds();

    // The self-test scale launches 32 and 16 images, where nothing is
    // committed: results only have to be positive.
    let (big, mid, hpl_n) = if p.smoke {
        (32, 16, 256)
    } else {
        (352, 64, HPL_N)
    };
    let committed = |us: f64| if p.smoke { f64::INFINITY } else { us };
    let tdlb_launch = barrier(big, BarrierAlgo::Tdlb, presets::stacks::UHCAF);
    let dissem_launch = barrier(big, BarrierAlgo::Dissemination, presets::stacks::UHCAF_FLAT);
    // Set-up is building the image map and the fabric for a launch, up to
    // the first simulated operation: a third of a millisecond, so a batch
    // of them is timed before each launch — spread over the run, where
    // one slow spell of the host cannot cover them all. (What follows a
    // set-up — spawning a thread per image and forming the initial team
    // *through* the simulator — takes most of a second, depends on where
    // the threads land, and is reported as `sim.threaded_wall_s`, a
    // diagnostic.)
    let mut setup_s = Vec::new();
    let mut time_setups = || {
        for _ in 0..if p.smoke { 1 } else { 12 } {
            let t0 = Instant::now();
            std::hint::black_box(tdlb_launch.fabric());
            setup_s.push(t0.elapsed().as_secs_f64());
        }
    };
    time_setups();
    let tdlb = tdlb_launch.measure(sync_all);
    time_setups();
    let dissem = dissem_launch.measure(sync_all);
    time_setups();
    let allreduce = allreduce8(big, ReduceAlgo::Auto).measure(co_sum8);
    time_setups();
    let bcast = bcast1m(mid, BcastAlgo::Auto).measure(co_broadcast1m);
    time_setups();
    for (what, got_us, committed_us) in [
        ("TDLB barrier 352(44)", tdlb.virt_us, TDLB_REF_US),
        (
            "dissemination barrier 352(44)",
            dissem.virt_us,
            DISSEM_REF_US,
        ),
        (
            "8 B allreduce 352(44)",
            allreduce.virt_us,
            ALLREDUCE8_REF_US,
        ),
        ("1 MiB broadcast 64(8)", bcast.virt_us, BCAST1M_64_REF_US),
    ] {
        pin(&mut r, what, got_us, committed(committed_us));
    }
    // Two runs on the seed's matrix: the simulator must give the same
    // virtual time twice, bit for bit.
    let two_level = hpl_virt(hpl_n, CollectiveConfig::two_level(), p.seed);
    time_setups();
    let again = hpl_virt(hpl_n, CollectiveConfig::two_level(), p.seed);
    time_setups();
    r.setup_s = setup_s;
    r.attempted += 2;
    if two_level.to_bits() != again.to_bits() {
        r.fail(
            1,
            format!("HPL virtual rate differs between two runs: {two_level} vs {again}"),
        );
    }
    r.throughput = vec![two_level];

    if p.trace {
        let runs = [&tdlb, &dissem, &allreduce, &bcast];
        let one_level = hpl_virt(hpl_n, CollectiveConfig::one_level(), p.seed);
        let flat_allreduce = allreduce8(big, ReduceAlgo::FlatRecursiveDoubling).measure(co_sum8);
        let store_forward = bcast1m(mid, BcastAlgo::TwoLevel).measure(co_broadcast1m);
        let tdlb_calls = tdlb_launch.count(sync_all);
        let dissem_calls = dissem_launch.count(sync_all);
        let allreduce_calls = allreduce8(big, ReduceAlgo::Auto).count(co_sum8);
        let bcast_calls = bcast1m(mid, BcastAlgo::Auto).count(co_broadcast1m);
        r.layer("collectives.tdlb_barrier_virt_us", tdlb.virt_us);
        r.layer("collectives.dissem_barrier_virt_us", dissem.virt_us);
        r.layer("collectives.allreduce8_virt_us", allreduce.virt_us);
        r.layer("collectives.bcast1m_virt_us", bcast.virt_us);
        r.layer("collectives.tdlb_speedup_x", dissem.virt_us / tdlb.virt_us);
        r.layer("collectives.tdlb_flags_per_barrier", tdlb_calls.flags);
        r.layer("collectives.dissem_flags_per_barrier", dissem_calls.flags);
        r.layer(
            "collectives.tdlb_inter_msgs_per_barrier",
            tdlb_calls.inter_msgs,
        );
        r.layer(
            "collectives.dissem_inter_msgs_per_barrier",
            dissem_calls.inter_msgs,
        );
        r.layer(
            "collectives.allreduce8_inter_msgs",
            allreduce_calls.inter_msgs,
        );
        r.layer("collectives.bcast1m_inter_bytes", bcast_calls.inter_bytes);
        r.layer("collectives.bcast1m_chunks", bcast_calls.nb_puts);
        r.layer(
            "collectives.bcast1m_store_forward_virt_us",
            store_forward.virt_us,
        );
        r.layer(
            "collectives.allreduce8_flat_virt_us",
            flat_allreduce.virt_us,
        );
        // `Auto` must never pick the slower algorithm.
        r.attempted += 2;
        if bcast.virt_us > store_forward.virt_us || allreduce.virt_us > flat_allreduce.virt_us {
            r.fail(
                1,
                "`Auto` picked a slower algorithm than a fixed choice it could have made",
            );
        }
        r.layer("hpl.virt_gflops", two_level / 1e9);
        r.layer(
            "hpl.two_level_gain_pct",
            100.0 * (two_level / one_level - 1.0),
        );
        r.layer("runtime.form_team_virt_us", form_team_virt_us(mid));
        let (cg_us, jacobi_us) = apps_virt_us(mid);
        r.layer("apps.cg_virt_us_per_iter", cg_us);
        r.layer("apps.jacobi_virt_us_per_sweep", jacobi_us);
        let wall: f64 = runs.iter().map(|s| s.wall_s).sum();
        let commits: u64 = runs.iter().map(|s| s.commits).sum();
        r.layer("sim.threaded_wall_s", wall);
        r.layer("sim.threaded_commits_per_s", commits as f64 / wall);
        r.layer("sim.commits", commits as f64);
        r.layer("sim.cpu_s", host::cpu_seconds() - cpu0);
    }
    r
}

/// `form_team` into 4 round-robin subteams + one subteam barrier, 64(8).
fn form_team_virt_us(images: usize) -> f64 {
    Launch::whale(images)
        .measure(|img, _| {
            let color = ((img.this_image() - 1) % 4) as i64;
            let mut team = img.form_team(color);
            img.sync_team(&mut team);
        })
        .virt_us
}

/// CG (64² grid) and Jacobi (16² tiles) on 64 images / 8 nodes: virtual
/// µs per iteration — both ride the 8 B allreduce.
fn apps_virt_us(images: usize) -> (f64, f64) {
    let launch = Launch::whale(images);
    let cg = run_on_fabric(launch.fabric(), launch.collectives, |img| {
        let out = cg_solve(
            img,
            &CgConfig {
                n: 64,
                rtol: 1e-8,
                max_iters: 40,
            },
        );
        out.time_ns as f64 / out.iters.max(1) as f64 / 1e3
    })[0];
    let jacobi = run_on_fabric(launch.fabric(), launch.collectives, |img| {
        let out = jacobi2d(
            img,
            &Jacobi2dConfig {
                tile: 16,
                boundary: 1.0,
                tol: 0.0,
                check_every: 5,
                max_sweeps: 40,
            },
        );
        out.time_ns as f64 / out.sweeps.max(1) as f64 / 1e3
    })[0];
    (cg, jacobi)
}
