//! EXP-F1 — **Figure 1**: HPL performance (GFLOP/s) across the paper's
//! five configurations of images(nodes) — 4(4), 16(16), 16(2), 64(8),
//! 256(32) — for the five software stacks:
//!
//! * UHCAF 2-level (hierarchy-aware collectives),
//! * UHCAF 1-level (flat collectives),
//! * CAF 2.0 with the OpenUH backend,
//! * CAF 2.0 with the GFortran backend,
//! * Open MPI without tuning.
//!
//! Paper claims: the 2-level approach gives **up to 32%** over 1-level;
//! ~95 GFLOP/s at 256 images vs 29.48 (CAF2.0/GFortran) and 80
//! (CAF2.0/OpenUH). Absolute numbers depend on the modeled DGEMM rate; the
//! orderings and ratios are the reproduction target, and the bench asserts
//! them: 2-level no slower than 1-level anywhere and *exactly* as fast
//! where every image has a node to itself, UHCAF ahead of CAF2.0-OpenUH
//! ahead of CAF2.0-GFortran.
//!
//! A second table says where UHCAF-2level's modeled time goes, by step of
//! the block loop as image 1 sees it (`HplOutcome::phase_ns`; the rows add
//! up to the factorization's time).
//!
//! Results go to `BENCH_hpl.json` (override with `CAF_BENCH_OUT`): modeled
//! nanoseconds per configuration × stack plus the UHCAF-2level phase rows,
//! all deterministic — CI reruns the quick configurations and diffs them
//! at the strict gate.

use caf_bench::results::{self, Meta, Rec, Surface};
use caf_bench::{hpl_comparators, modeled_hpl, print_hpl_preamble, scaled};
use caf_microbench::Table;

/// Image count → problem size N (scaled so per-image work stays meaningful
/// while a 1-core host can simulate 256 images).
fn problem_size(images: usize) -> usize {
    match images {
        0..=4 => scaled(1024, 256),
        5..=16 => scaled(1536, 256),
        17..=64 => scaled(2048, 512),
        _ => scaled(2560, 512),
    }
}

/// (images, nodes, row name in the result file). Quick mode runs 4(4),
/// 16(2) and 64(8); 64(8) is the configuration whose column team is eight
/// images on one node.
const CONFIGS: [(usize, usize, &str); 5] = [
    (4, 4, "hpl_f1_4x4"),
    (16, 16, "hpl_f1_16x16"),
    (16, 2, "hpl_f1_16x2"),
    (64, 8, "hpl_f1_64x8"),
    (256, 32, "hpl_f1_256x32"),
];

fn main() {
    print_hpl_preamble("EXP-F1");
    let quick = caf_bench::quick_mode();
    let configs = CONFIGS
        .iter()
        .filter(|c| !quick || matches!((c.0, c.1), (4, 4) | (16, 2) | (64, 8)));
    let comps = hpl_comparators();

    let mut headers: Vec<&str> = vec!["images(nodes)", "N"];
    headers.extend(comps.iter().map(|c| c.name));
    headers.push("2lvl-gain");
    let mut table = Table::new("EXP-F1 (Figure 1): HPL GFLOP/s (modeled)", &headers);
    let mut phases = Table::new(
        "EXP-F1: where UHCAF-2level's modeled time goes (image 1, ms)",
        &[
            "images(nodes)",
            "panel",
            "panel_bcast",
            "interchange",
            "dtrsm",
            "u12_bcast",
            "update",
            "closing_sync",
            "total",
        ],
    );
    let mut recs: Vec<Rec> = Vec::new();

    let mut best_gain: f64 = 0.0;
    for &(images, nodes, op) in configs {
        let n = problem_size(images);
        let label = format!("{images}({nodes})");
        let mut row = vec![label.clone(), n.to_string()];
        let mut ns_of: Vec<(&str, u64)> = Vec::new(); // modeled time by stack
        for c in &comps {
            let run = modeled_hpl(images, nodes, n, c);
            row.push(format!("{:.2}", run.gflops));
            ns_of.push((c.name, run.time_ns));
            recs.push(Rec {
                op,
                bytes: n,
                algo: format!("{}_virt", c.name),
                ns: run.time_ns as f64,
            });
            if c.name == "UHCAF-2level" {
                assert_eq!(
                    run.phase_ns.total(),
                    run.time_ns,
                    "{label}: the phases must add up to the factorization's time"
                );
                let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
                let mut cells = vec![label.clone()];
                for (phase, ns) in run.phase_ns.rows() {
                    cells.push(ms(ns));
                    recs.push(Rec {
                        op,
                        bytes: n,
                        algo: format!("{}_{phase}_virt", c.name),
                        ns: ns as f64,
                    });
                }
                cells.push(ms(run.time_ns));
                phases.row(&cells);
            }
        }
        let ns = |stack: &str| {
            ns_of
                .iter()
                .find(|e| e.0 == stack)
                .expect("a Figure-1 stack")
                .1
        };
        let (two, one) = (ns("UHCAF-2level"), ns("UHCAF-1level"));
        // What Figure 1 claims, as far as a model can be held to it.
        assert!(
            two <= one,
            "{label}: 2-level collectives slower than 1-level ({two} vs {one} ns)"
        );
        if images == nodes {
            assert_eq!(
                two, one,
                "{label}: one image per node, yet the hierarchy changed the time"
            );
        }
        assert!(
            one < ns("CAF2.0-OpenUH") && ns("CAF2.0-OpenUH") < ns("CAF2.0-GFortran"),
            "{label}: Figure 1 orders UHCAF > CAF2.0-OpenUH > CAF2.0-GFortran, got {ns_of:?}"
        );
        let gain = (one as f64 / two as f64 - 1.0) * 100.0;
        best_gain = best_gain.max(gain);
        row.push(format!("{gain:+.1}%"));
        table.row(&row);
    }
    table.note(format!(
        "measured max 2-level gain over 1-level: {best_gain:.1}% (paper: up to 32%)"
    ));
    table.note(
        "paper at 256 images: UHCAF 95, CAF2.0-OpenUH 80, CAF2.0-GFortran 29.48 GFLOP/s \
         — compare orderings/ratios, not absolutes",
    );
    table.print();
    phases.note(
        "panel_bcast is waiting for the next panel to come round the row team's ring, \
         and for a ring successor's credit before reusing its slot; \
         the rows add up to the total (asserted)",
    );
    phases.print();

    results::write(
        &Surface {
            experiment: "exp_f1_hpl",
            file: "BENCH_hpl.json",
            header: &[
                ("machine", Meta::Str("whale")),
                ("kernel", Meta::Str(caf_hpl::blas::kernel_name())),
            ],
            unit: "modeled_ns_per_factorization",
            ns_decimals: 0,
        },
        &recs,
    );
    println!("acceptance: Figure 1's orderings hold at every configuration -- PASS");
}
