//! The differential-oracle runner: execute one SPMD program under the
//! default simulator (the oracle), under chaos × seeds (optionally with
//! injected faults), and under the real-thread fabric; diff the outputs;
//! shrink any failing chaos configuration to a minimal one; render a
//! replayable report.

use crate::scenario::Scenario;
use caf_collectives::CollectiveConfig;
use caf_fabric::ChaosConfig;
use caf_runtime::{run, FabricChoice, ImageCtx, RunConfig};
use caf_topology::Placement;
use caf_trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// An SPMD program under test: one closure, run on every image, whose
/// per-image `u64` result (typically a digest) is what the oracle diffs.
pub type Program = Arc<dyn Fn(&mut ImageCtx) -> u64 + Send + Sync>;

/// Sweep options for [`check_program`].
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Chaos seeds to explore (each runs once, via
    /// [`ChaosConfig::from_seed`]). Overridden by `CAF_CHECK_SEED`.
    pub seeds: Vec<u64>,
    /// Layer fault injection (stall / slow node / delayed + duplicated
    /// completions) onto every third seed.
    pub faults: bool,
    /// Also run the program on the real-thread fabric and diff it.
    pub threads: bool,
    /// Events per image in the failure report's trace window.
    pub trace_window: usize,
}

impl CheckOptions {
    /// `n` seeds starting at `base`, faults on, threads on.
    pub fn sweep(base: u64, n: usize) -> Self {
        Self {
            seeds: (0..n as u64).map(|k| base + k).collect(),
            faults: true,
            threads: true,
            trace_window: 5,
        }
    }
}

/// Everything a caller needs to reproduce and fix a divergence.
#[derive(Debug)]
pub struct Failure {
    /// Scenario label.
    pub scenario: String,
    /// Algorithm-matrix cell label.
    pub algo: String,
    /// Which run diverged ("oracle", "chaos seed N", "threads").
    pub kind: String,
    /// The replayable seed, for chaos runs.
    pub seed: Option<u64>,
    /// Greedily shrunk minimal failing chaos configuration.
    pub minimal: Option<ChaosConfig>,
    /// Output diff or panic message.
    pub detail: String,
    /// Recent per-image events of the failing run (needs `trace`).
    pub trace_window: String,
}

impl Failure {
    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "caf-check FAILURE: scenario {}, algos {}, run {}\n  {}\n",
            self.scenario,
            self.algo,
            self.kind,
            self.detail.replace('\n', "\n  "),
        );
        if let Some(seed) = self.seed {
            s.push_str(&format!(
                "  replay: CAF_CHECK_SEED={seed} cargo xtask check --quick\n"
            ));
        }
        if let Some(min) = &self.minimal {
            s.push_str(&format!("  minimal failing chaos config: {min:?}\n"));
        }
        if !self.trace_window.is_empty() {
            s.push_str("  recent events of the failing run:\n");
            s.push_str(&self.trace_window);
        }
        s
    }
}

/// Counts from a clean sweep of one (scenario, algorithm) cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckReport {
    /// Total program executions (oracle + chaos + threads).
    pub runs: usize,
    /// How many of them ran under a chaos schedule.
    pub chaos_runs: usize,
    /// How many chaos runs carried injected faults.
    pub fault_runs: usize,
}

/// Which fabric/perturbation one execution uses.
#[derive(Clone, Debug)]
enum Spec {
    Sim(Option<ChaosConfig>),
    /// The simulator with the pre-scale O(n)-scan scheduler and global
    /// event heap ([`caf_fabric::SimConfig::legacy_queue`], also reachable
    /// via `CAF_SIM_LEGACY_QUEUE=1`) — the comparison basis for the
    /// default one-queue event core.
    SimLegacy(Option<ChaosConfig>),
    Threads,
}

/// Execute `prog` once under `spec`; panics (including simulator deadlock
/// reports) become `Err(message)` so every injected-fault run terminates
/// the sweep loop either way.
fn run_once(
    scn: &Scenario,
    algo: CollectiveConfig,
    spec: &Spec,
    prog: &Program,
    tracer: Tracer,
) -> Result<Vec<u64>, String> {
    let fabric = match spec {
        Spec::Sim(chaos) => FabricChoice::Sim(caf_fabric::SimConfig {
            chaos: *chaos,
            tracer,
            ..caf_fabric::SimConfig::default()
        }),
        Spec::SimLegacy(chaos) => FabricChoice::Sim(caf_fabric::SimConfig {
            chaos: *chaos,
            tracer,
            legacy_queue: true,
            ..caf_fabric::SimConfig::default()
        }),
        Spec::Threads => FabricChoice::Threads(caf_fabric::ThreadConfig {
            tracer,
            ..caf_fabric::ThreadConfig::default()
        }),
    };
    let cfg = RunConfig {
        machine: scn.machine.clone(),
        images: scn.images,
        placement: Placement::Packed,
        fabric,
        collectives: algo,
    };
    let prog = prog.clone();
    catch_unwind(AssertUnwindSafe(move || run(cfg, move |img| prog(img))))
        .map_err(|payload| caf_fabric::panic_message(payload.as_ref()))
}

/// `None` when `got` matches the oracle; otherwise a short description of
/// the divergence (panic message, length mismatch, or the first differing
/// images). Shared with the socket backend column.
pub(crate) fn diff(oracle: &[u64], got: &Result<Vec<u64>, String>) -> Option<String> {
    let got = match got {
        Err(msg) => return Some(format!("panicked: {msg}")),
        Ok(v) => v,
    };
    if got.len() != oracle.len() {
        return Some(format!(
            "result count mismatch: oracle {}, got {}",
            oracle.len(),
            got.len()
        ));
    }
    let bad: Vec<String> = oracle
        .iter()
        .zip(got)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .take(4)
        .map(|(i, (a, b))| format!("image {}: oracle {a:#018x}, got {b:#018x}", i + 1))
        .collect();
    if bad.is_empty() {
        None
    } else {
        Some(format!("output mismatch\n{}", bad.join("\n")))
    }
}

/// The fault layer for seed index `idx`: deterministic from the seed, one
/// of four fault families.
fn with_faults(mut chaos: ChaosConfig, seed: u64, images: usize, nodes: usize) -> ChaosConfig {
    match seed % 4 {
        0 => {
            chaos.stalled_image = Some((seed / 4) as usize % images);
            chaos.stall_ns = 25_000;
        }
        1 => {
            chaos.slow_node = Some((seed / 4) as usize % nodes.max(1));
            chaos.slow_node_ns = 3_000;
        }
        2 => chaos.completion_delay_ns = 8_000,
        _ => chaos.duplicate_completions = true,
    }
    chaos
}

/// Greedy shrink: repeatedly try to disable or halve chaos knobs while
/// the configuration still fails against the oracle; returns the last
/// failing configuration (a local minimum).
fn shrink(
    scn: &Scenario,
    algo: CollectiveConfig,
    prog: &Program,
    oracle: &[u64],
    failing: ChaosConfig,
) -> ChaosConfig {
    type Step = fn(&mut ChaosConfig);
    let steps: &[Step] = &[
        |c| {
            c.stalled_image = None;
            c.stall_ns = 0;
        },
        |c| {
            c.slow_node = None;
            c.slow_node_ns = 0;
        },
        |c| c.duplicate_completions = false,
        |c| c.completion_delay_ns = 0,
        |c| c.pct_interval = 0,
        |c| c.reorder = false,
        |c| c.net_jitter_ns = 0,
        |c| c.cpu_jitter_ns = 0,
        |c| c.net_jitter_ns /= 2,
        |c| c.cpu_jitter_ns /= 2,
    ];
    let still_fails = |c: &ChaosConfig| {
        let got = run_once(scn, algo, &Spec::Sim(Some(*c)), prog, Tracer::off());
        diff(oracle, &got).is_some()
    };
    let mut cur = failing;
    for _pass in 0..6 {
        let mut progressed = false;
        for step in steps {
            let mut cand = cur;
            step(&mut cand);
            if cand != cur && still_fails(&cand) {
                cur = cand;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    cur
}

/// Re-run a failing configuration with an enabled tracer and render the
/// recent per-image event window.
fn capture_window(
    scn: &Scenario,
    algo: CollectiveConfig,
    spec: &Spec,
    prog: &Program,
    per_image: usize,
) -> String {
    let tracer = Tracer::for_images(scn.images);
    let _ = run_once(scn, algo, spec, prog, tracer.clone());
    tracer.render_recent(per_image)
}

/// Differentially check `prog` on one (scenario, algorithm) cell: oracle
/// first, then chaos seeds (faults layered per [`CheckOptions::faults`]),
/// then the thread fabric. Returns run counts, or the first divergence —
/// shrunk to a minimal chaos config when chaos-induced.
///
/// `CAF_CHECK_SEED=<n>` replaces the seed list with exactly `<n>`: the
/// replay knob printed by every failure report.
pub fn check_program(
    scn: &Scenario,
    algo_name: &str,
    algo: CollectiveConfig,
    prog: &Program,
    opts: &CheckOptions,
) -> Result<CheckReport, Box<Failure>> {
    let fail = |kind: String, seed, minimal, detail, window| {
        Box::new(Failure {
            scenario: scn.name.clone(),
            algo: algo_name.to_string(),
            kind,
            seed,
            minimal,
            detail,
            trace_window: window,
        })
    };

    let mut report = CheckReport::default();
    let oracle = match run_once(scn, algo, &Spec::Sim(None), prog, Tracer::off()) {
        Ok(v) => v,
        Err(msg) => {
            let window = capture_window(scn, algo, &Spec::Sim(None), prog, opts.trace_window);
            return Err(fail(
                "oracle (default sim)".into(),
                None,
                None,
                format!("panicked: {msg}"),
                window,
            ));
        }
    };
    report.runs += 1;

    let seeds: Vec<u64> = match std::env::var("CAF_CHECK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(s) => vec![s],
        None => opts.seeds.clone(),
    };
    let nodes = scn.machine.nodes;
    for (idx, &seed) in seeds.iter().enumerate() {
        let mut chaos = ChaosConfig::from_seed(seed);
        let faulted = opts.faults && idx % 3 == 2;
        if faulted {
            chaos = with_faults(chaos, seed, scn.images, nodes);
            report.fault_runs += 1;
        }
        let spec = Spec::Sim(Some(chaos));
        let got = run_once(scn, algo, &spec, prog, Tracer::off());
        report.runs += 1;
        report.chaos_runs += 1;
        if let Some(detail) = diff(&oracle, &got) {
            let minimal = shrink(scn, algo, prog, &oracle, chaos);
            let window = capture_window(
                scn,
                algo,
                &Spec::Sim(Some(minimal)),
                prog,
                opts.trace_window,
            );
            return Err(fail(
                format!(
                    "chaos seed {seed}{}",
                    if faulted { " + faults" } else { "" }
                ),
                Some(seed),
                Some(minimal),
                detail,
                window,
            ));
        }
    }

    if opts.threads {
        let got = run_once(scn, algo, &Spec::Threads, prog, Tracer::off());
        report.runs += 1;
        if let Some(detail) = diff(&oracle, &got) {
            let window = capture_window(scn, algo, &Spec::Threads, prog, opts.trace_window);
            return Err(fail("threads".into(), None, None, detail, window));
        }
    }

    Ok(report)
}

/// The legacy-queue column: run `prog` once per chaos spec (`None` plus
/// each seed) under the default event core (events and image turns in one
/// monotone queue), re-run it under the pre-scale O(n) core
/// (`SimConfig::legacy_queue`, the `CAF_SIM_LEGACY_QUEUE=1` escape hatch),
/// and diff the digests. The two cores must agree bit-for-bit — the queue
/// is a pure data-structure swap, so any divergence is a scheduler-order
/// bug, not a modeling change. Returns the number of executions on success.
pub fn check_legacy_queue(
    scn: &Scenario,
    algo_name: &str,
    algo: CollectiveConfig,
    prog: &Program,
    chaos_seeds: &[u64],
) -> Result<usize, Box<Failure>> {
    let mut specs: Vec<(String, Option<ChaosConfig>)> = vec![("no chaos".into(), None)];
    specs.extend(
        chaos_seeds
            .iter()
            .map(|&s| (format!("chaos seed {s}"), Some(ChaosConfig::from_seed(s)))),
    );
    let mut runs = 0;
    for (label, chaos) in specs {
        let fail = |detail: String| {
            Box::new(Failure {
                scenario: scn.name.clone(),
                algo: algo_name.to_string(),
                kind: format!("legacy queue vs one queue, {label}"),
                seed: chaos.map(|c| c.seed),
                minimal: None,
                detail,
                trace_window: String::new(),
            })
        };
        let queue = match run_once(scn, algo, &Spec::Sim(chaos), prog, Tracer::off()) {
            Ok(v) => v,
            Err(msg) => return Err(fail(format!("one-queue core panicked: {msg}"))),
        };
        let legacy = run_once(scn, algo, &Spec::SimLegacy(chaos), prog, Tracer::off());
        runs += 2;
        if let Some(detail) = diff(&queue, &legacy) {
            return Err(fail(detail));
        }
    }
    Ok(runs)
}
