//! EXP-C1-msgsize — the large-message pipelined data path, §V-A / §VII:
//! broadcast and all-reduce latency vs payload size on the whale cluster,
//! comparing the flat tree, the store-and-forward two-level algorithm, the
//! chunked pipelined two-level algorithm (and Rabenseifner for reduce),
//! and the size-aware `Auto` policy.
//!
//! The claim under test: store-and-forward two-level collectives serialize
//! the inter-node stage and the intranode fan-out, so at large payloads
//! the pipelined variant — which streams K-byte chunks down a pipelined
//! binary tree of node leaders while each leader fans received chunks out
//! through shared memory — is ≥2× faster in modeled time at ≥256 KiB,
//! while `Auto` keeps picking the latency-optimal tree at 8 B (no
//! small-message regression).
//!
//! Two sets of rows ride along so that every algorithm has a committed,
//! gated number: the linear broadcast strawman at each size, and one
//! `op: "barrier"` row per barrier algorithm (`bytes: 0`).
//!
//! Besides the usual table, this harness emits machine-readable results to
//! `BENCH_collectives.json` (override with `CAF_BENCH_OUT`); CI reruns it
//! at quick scale and `cargo xtask bench-diff`s against the committed
//! baseline, failing on >10% modeled-time regression.

use caf_bench::results::{self, Meta, Rec, Surface};
use caf_bench::{print_cost_preamble, quick_mode, scaled};
use caf_microbench::{
    allreduce_latency, barrier_latency, broadcast_latency, report, MicroConfig, Table,
};
use caf_runtime::{BarrierAlgo, BcastAlgo, CollectiveConfig, ReduceAlgo};

fn mc(n: usize, cfg: CollectiveConfig, iters: usize) -> MicroConfig {
    let mut mc = MicroConfig::whale(n, 8).with_collectives(cfg);
    mc.warmup = 1;
    mc.iters = iters;
    mc
}

fn bcast_ns(n: usize, elems: usize, algo: BcastAlgo, iters: usize) -> f64 {
    let cfg = CollectiveConfig {
        bcast: algo,
        ..CollectiveConfig::default()
    };
    broadcast_latency(&mc(n, cfg, iters), elems).ns_per_op
}

fn barrier_ns(n: usize, algo: BarrierAlgo, iters: usize) -> f64 {
    let cfg = CollectiveConfig {
        barrier: algo,
        ..CollectiveConfig::default()
    };
    barrier_latency(&mc(n, cfg, iters)).ns_per_op
}

fn reduce_ns(n: usize, elems: usize, algo: ReduceAlgo, iters: usize) -> f64 {
    let cfg = CollectiveConfig {
        reduce: algo,
        ..CollectiveConfig::default()
    };
    allreduce_latency(&mc(n, cfg, iters), elems).ns_per_op
}

/// Name the comparator whose modeled time the `Auto` run reproduced
/// exactly (the simulator is deterministic, so a matching algorithm gives
/// a bit-identical latency).
fn matched<'a>(auto: f64, named: &[(&'a str, f64)]) -> &'a str {
    named
        .iter()
        .find(|(_, ns)| (auto - ns).abs() < 1e-6)
        .map(|(name, _)| *name)
        .unwrap_or("?")
}

fn main() {
    print_cost_preamble("EXP-C1-msgsize");
    let n = scaled(352, 64);
    let iters = scaled(3, 2);
    // Payloads in f64 elements: 8 B .. 4 MiB (quick: 8 B, 32 KiB, 1 MiB).
    // `CAF_BENCH_SIZES=1,4096` narrows the sweep for tuning runs.
    let sizes: Vec<usize> = if let Ok(s) = std::env::var("CAF_BENCH_SIZES") {
        s.split(',')
            .map(|x| {
                x.trim()
                    .parse()
                    .expect("CAF_BENCH_SIZES: comma-separated element counts")
            })
            .collect()
    } else if quick_mode() {
        vec![1, 4096, 131_072]
    } else {
        vec![1, 128, 4096, 32_768, 131_072, 524_288]
    };
    let mut recs: Vec<Rec> = Vec::new();

    let mut t1 = Table::new(
        format!(
            "EXP-C1-msgsize (broadcast): co_broadcast latency vs payload, {n} images ({} nodes), modeled us",
            n / 8
        ),
        &[
            "bytes",
            "flat-linear",
            "flat-binomial",
            "two-level",
            "pipelined",
            "auto",
            "auto=",
            "2lvl/pipe",
        ],
    );
    let mut bcast_big_speedup: f64 = f64::INFINITY;
    let mut bcast_small_ok = true;
    for &elems in &sizes {
        let bytes = elems * 8;
        let linear = bcast_ns(n, elems, BcastAlgo::FlatLinear, iters);
        let flat = bcast_ns(n, elems, BcastAlgo::FlatBinomial, iters);
        let two = bcast_ns(n, elems, BcastAlgo::TwoLevel, iters);
        let pipe = bcast_ns(n, elems, BcastAlgo::TwoLevelPipelined, iters);
        let auto = bcast_ns(n, elems, BcastAlgo::Auto, iters);
        let named = [
            ("flat_linear", linear),
            ("flat_binomial", flat),
            ("two_level", two),
            ("two_level_pipelined", pipe),
        ];
        t1.row(&[
            bytes.to_string(),
            report::us(linear),
            report::us(flat),
            report::us(two),
            report::us(pipe),
            report::us(auto),
            matched(auto, &named).to_string(),
            report::speedup(two, pipe),
        ]);
        for (algo, ns) in named {
            recs.push(Rec {
                op: "broadcast",
                bytes,
                algo: algo.into(),
                ns,
            });
        }
        recs.push(Rec {
            op: "broadcast",
            bytes,
            algo: "auto".into(),
            ns: auto,
        });
        if bytes >= 256 * 1024 {
            bcast_big_speedup = bcast_big_speedup.min(two / pipe);
        }
        if bytes == 8 {
            bcast_small_ok = auto <= two * 1.001;
        }
    }
    if !quick_mode() {
        t1.note(format!(
            "min pipelined speedup over store-and-forward two-level at >=256 KiB: {bcast_big_speedup:.1}x (target: >=2x)"
        ));
    }
    t1.print();

    let mut t2 = Table::new(
        format!(
            "EXP-C1-msgsize (reduce): co_sum latency vs payload, {n} images ({} nodes), modeled us",
            n / 8
        ),
        &[
            "bytes",
            "flat-rd",
            "two-level",
            "pipelined",
            "rabenseifner",
            "auto",
            "auto=",
            "2lvl/pipe",
        ],
    );
    for &elems in &sizes {
        let bytes = elems * 8;
        let flat = reduce_ns(n, elems, ReduceAlgo::FlatRecursiveDoubling, iters);
        let two = reduce_ns(n, elems, ReduceAlgo::TwoLevel, iters);
        let pipe = reduce_ns(n, elems, ReduceAlgo::TwoLevelPipelined, iters);
        let rab = reduce_ns(n, elems, ReduceAlgo::Rabenseifner, iters);
        let auto = reduce_ns(n, elems, ReduceAlgo::Auto, iters);
        let named = [
            ("flat_recursive_doubling", flat),
            ("two_level", two),
            ("two_level_pipelined", pipe),
            ("rabenseifner", rab),
        ];
        t2.row(&[
            bytes.to_string(),
            report::us(flat),
            report::us(two),
            report::us(pipe),
            report::us(rab),
            report::us(auto),
            matched(auto, &named).to_string(),
            report::speedup(two, pipe),
        ]);
        for (algo, ns) in named {
            recs.push(Rec {
                op: "allreduce",
                bytes,
                algo: algo.into(),
                ns,
            });
        }
        recs.push(Rec {
            op: "allreduce",
            bytes,
            algo: "auto".into(),
            ns: auto,
        });
    }
    t2.print();

    // The five barrier algorithms (no payload: `bytes` is 0). These rows
    // are what pins the three comparators no other committed row runs.
    let mut t3 = Table::new(
        format!(
            "EXP-C1-msgsize (barrier): sync_all latency by algorithm, {n} images ({} nodes), modeled us",
            n / 8
        ),
        &["algo", "latency"],
    );
    for (algo, which) in [
        ("central_counter", BarrierAlgo::CentralCounter),
        ("binomial_tree", BarrierAlgo::BinomialTree),
        ("dissemination", BarrierAlgo::Dissemination),
        ("tdlb", BarrierAlgo::Tdlb),
        ("tdlb_multilevel", BarrierAlgo::TdlbMultilevel),
    ] {
        let ns = barrier_ns(n, which, iters);
        t3.row(&[algo.to_string(), report::us(ns)]);
        recs.push(Rec {
            op: "barrier",
            bytes: 0,
            algo: algo.into(),
            ns,
        });
    }
    t3.print();

    results::write(
        &Surface {
            experiment: "exp_c1_msgsize",
            file: "BENCH_collectives.json",
            header: &[
                ("machine", Meta::Str("whale")),
                ("images", Meta::Num(n)),
                ("per_node", Meta::Num(8)),
            ],
            unit: "modeled_ns_per_op",
            ns_decimals: 3,
        },
        &recs,
    );

    if !quick_mode() {
        assert!(
            bcast_big_speedup >= 2.0,
            "pipelined broadcast speedup {bcast_big_speedup:.2}x at >=256 KiB misses the 2x target"
        );
        assert!(bcast_small_ok, "Auto regressed the 8 B broadcast");
        println!("acceptance: pipelined >=2x at >=256 KiB, no 8 B regression -- PASS");
    }
}
