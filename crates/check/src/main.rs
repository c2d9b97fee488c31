//! The `caf-check` binary: sweep the built-in conformance program over
//! {default sim, chaos × seeds (with faults), real threads} × scenarios ×
//! the collective-algorithm matrix — plus the fleet column (real
//! multi-process fleets, one with the zero-copy shm tier on and one on
//! the pure wire, each diffed against the sim oracle; part of every
//! sweep, alone via `--shm-only`). A process the launcher started is one
//! of those fleets' members, with its cell in its argv. Exit 0 on a clean
//! sweep, 1 with a replayable report on the first divergence.

use caf_check::{
    algo_matrix, check_legacy_queue, check_program, check_recover, check_shm, conformance,
    conformance_member, CheckOptions, Failure, Program, RecoverDrill, Scenario,
};
use caf_collectives::CollectiveConfig;
use caf_launch::ChildEnv;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Default)]
struct Args {
    deep: bool,
    seeds_per_cell: Option<usize>,
    shm_only: bool,
    recover: bool,
    recover_only: bool,
    kill_after_ms: u64,
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        kill_after_ms: 150,
        ..Args::default()
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.deep = false,
            "--deep" => args.deep = true,
            "--shm-only" => args.shm_only = true,
            "--recover" => args.recover = true,
            "--recover-only" => {
                args.recover = true;
                args.recover_only = true;
            }
            "--kill-after-ms" => {
                let v = it.next().ok_or("--kill-after-ms needs a value")?;
                args.kill_after_ms = v
                    .parse()
                    .map_err(|e| format!("bad --kill-after-ms {v:?}: {e}"))?;
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                args.seeds_per_cell =
                    Some(v.parse().map_err(|e| format!("bad --seeds {v:?}: {e}"))?);
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}\n\
                     usage: caf-check [--quick|--deep] [--seeds N] [--shm-only]\n\
                     \x20      [--recover|--recover-only] [--kill-after-ms T]\n\
                     env:   CAF_CHECK_SEED=N            replay exactly one chaos seed\n\
                     env:   CAF_CHECK_SOCKET_ALGOS=a,b  restrict the fleet column's algo cells"
                ))
            }
        }
    }
    Ok(args)
}

/// What a clean [`column`] adds up to, for its summary line.
struct Tally {
    cells: usize,
    runs: usize,
    secs: f64,
}

/// One column of the sweep: `cell(index, name, algo)` on every cell of the
/// algorithm matrix (only those named in `filter`, when given), summing
/// the runs each reports. The first divergence is printed as a replayable
/// report and ends the sweep with exit code 1.
fn column(
    filter: Option<&[String]>,
    mut cell: impl FnMut(usize, &str, CollectiveConfig) -> Result<usize, Box<Failure>>,
) -> Result<Tally, ExitCode> {
    let t0 = Instant::now();
    let (mut cells, mut runs) = (0, 0);
    for (i, (name, algo)) in algo_matrix().iter().enumerate() {
        if filter.is_some_and(|keep| !keep.contains(name)) {
            continue;
        }
        runs += cell(i, name, *algo).map_err(|failure| {
            eprintln!("{}", failure.render());
            ExitCode::FAILURE
        })?;
        cells += 1;
    }
    Ok(Tally {
        cells,
        runs,
        secs: t0.elapsed().as_secs_f64(),
    })
}

/// The fleet column: the mini scenario across the full algorithm matrix
/// (or the `CAF_CHECK_SOCKET_ALGOS` subset), each cell two real
/// multi-process fleets — the zero-copy shm tier forced on, then the pure
/// wire — each diffed bit-for-bit against the sim oracle (itself checked
/// under chaos seeds).
fn run_shm_column(filter: Option<&[String]>) -> Result<(), ExitCode> {
    let scn = Scenario::mini();
    let t = column(filter, |_, name, algo| {
        check_shm(&scn, name, algo, &[5, 17]).map(|r| r.runs)
    })?;
    println!(
        "caf-check: shared-memory tier and wire fleets matched the sim oracle \
         on {} ({} algo configs, {} runs, {:.1}s)",
        scn.name, t.cells, t.runs, t.secs
    );
    Ok(())
}

/// The kill-and-recover drill family on the mini scenario: one drill per
/// victim node (rank 0 hosts the team leader — its death exercises leader
/// re-election in the re-formed team), each a respawn-supervised fleet
/// whose recovered digests must match the undisturbed sim oracle.
fn run_recover_drills(kill_after_ms: u64) -> Result<(), ExitCode> {
    let scn = Scenario::mini();
    let matrix = algo_matrix();
    let (algo_name, algo) = &matrix[0];
    let t0 = Instant::now();
    let mut drills = 0usize;
    // The kill can only land while the fleet is inside the conformance
    // loop, so the loop must outlast --kill-after-ms in *this* build
    // profile: release runs a rep roughly 40x faster than debug.
    let reps = if cfg!(debug_assertions) { 16 } else { 640 };
    for kill_node in [1usize, 0] {
        let drill = RecoverDrill {
            kill_node,
            kill_after: Duration::from_millis(kill_after_ms),
            reps,
        };
        if let Err(failure) = check_recover(&scn, algo_name, *algo, &drill, 3) {
            eprintln!("{}", failure.render());
            return Err(ExitCode::FAILURE);
        }
        drills += 1;
    }
    println!(
        "caf-check: kill-and-recover drills clean on {} — {drills} drills, each a \
         respawned node rejoining mid-run with digests matching the undisturbed \
         oracle bit-for-bit ({:.1}s)",
        scn.name,
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(env) = ChildEnv::detect() {
        return conformance_member(env, &argv);
    }
    let swept = parse_args(argv).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    });
    match swept.and_then(|args| sweep(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn sweep(args: &Args) -> Result<(), ExitCode> {
    let filter: Option<Vec<String>> = std::env::var("CAF_CHECK_SOCKET_ALGOS")
        .ok()
        .map(|s| s.split(',').map(|a| a.trim().to_string()).collect());
    let filter = filter.as_deref();
    if args.recover_only {
        return run_recover_drills(args.kill_after_ms);
    }
    if args.shm_only {
        return run_shm_column(filter);
    }
    // Quick: bounded sweep for CI (≤ ~1 min); deep: the nightly/manual
    // soak. Threads differencing runs only on the small scenario in quick
    // mode (real threads on shared CI cores are the slow part).
    let seeds_per_cell = args
        .seeds_per_cell
        .unwrap_or(if args.deep { 32 } else { 6 });
    let scenarios = [Scenario::mini(), Scenario::whale()];
    let prog: Program = Arc::new(conformance);

    let t0 = Instant::now();
    let (mut runs, mut chaos_runs, mut fault_runs) = (0, 0, 0);
    for scn in &scenarios {
        let t = column(None, |cell, name, algo| {
            let opts = CheckOptions {
                // Distinct seeds per cell: the sweep explores
                // scenarios × algos × seeds_per_cell different schedules.
                seeds: (0..seeds_per_cell as u64)
                    .map(|k| 1 + cell as u64 * 1_000 + k)
                    .collect(),
                faults: true,
                threads: args.deep || scn.images <= 8,
                trace_window: 5,
            };
            let r = check_program(scn, name, algo, &prog, &opts)?;
            chaos_runs += r.chaos_runs;
            fault_runs += r.fault_runs;
            Ok(r.runs)
        })?;
        println!(
            "caf-check: scenario {} clean ({} algo configs, {:.1}s)",
            scn.name, t.cells, t.secs
        );
        runs += t.runs;
    }
    println!(
        "caf-check: all outputs matched — {} runs ({} chaos, {} with faults) \
         across {} scenarios x {} algo configs in {:.1}s",
        runs,
        chaos_runs,
        fault_runs,
        scenarios.len(),
        algo_matrix().len(),
        t0.elapsed().as_secs_f64()
    );
    // The legacy event-core column: the mini scenario across the full
    // algorithm matrix, diffing the default one-queue event core against
    // the pre-scale O(n) core (`CAF_SIM_LEGACY_QUEUE=1` path) with and
    // without chaos. Cheap enough to run in every sweep, and the only
    // guard that the scale core never drifts from the reference
    // scheduler.
    let scn = Scenario::mini();
    let t = column(None, |_, name, algo| {
        check_legacy_queue(&scn, name, algo, &prog, &[5, 17])
    })?;
    println!(
        "caf-check: legacy event core matched the one-queue core — {} runs \
         across {} algo configs ({:.1}s)",
        t.runs, t.cells, t.secs
    );
    // The fleet column runs in every sweep (`--quick` included): real
    // fleets with the shm tier on and on the pure wire, each diffed against
    // the sim oracle across the full algorithm matrix.
    run_shm_column(filter)?;
    if args.recover {
        run_recover_drills(args.kill_after_ms)?;
    }
    Ok(())
}
