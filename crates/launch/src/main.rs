//! `caf-launch`: spawn a multi-process SocketFabric fleet and supervise it.
//!
//! ```text
//! caf-launch demo --nodes 2 --cores 4 --images 8 [--iters 50]
//!                 [--kill-node R --kill-after-ms T] [--tcp]
//!                 [--peer-timeout-ms T] [--run-timeout-ms T]
//! ```
//!
//! `demo` re-executes this same binary, with the same arguments, once per
//! occupied node; a process that finds the launcher's variables
//! ([`ChildEnv::detect`]) is a member, reads its settings from those
//! arguments, joins the fleet over real sockets, runs a barrier + `co_sum`
//! loop through the full runtime stack, and reports a per-image digest
//! back over the coordinator connection. `--kill-node`
//! turns the demo into a fault drill: the launcher kills that child
//! mid-run and must report its 1-based image ranks instead of hanging.
//! Adding `--respawn` turns the drill into kill-*and-recover*: the dead
//! node is respawned, rejoins via the `Rejoin` handshake, restores from
//! the checkpoint store, and the digests must match an undisturbed run.
//! `--shrink` instead lets the survivors re-form the team without the
//! dead node and complete on the shrunken topology.

use caf_launch::{launch, member, ChildEnv, KillSpec, LaunchSpec, Transport};
use caf_obs::{fleet_report_json, fleet_summary, merged_chrome_json, NodeFeed};
use caf_runtime::{
    recovery::ENV_CKPT_DIR, CheckpointStore, CollectiveConfig, ImageCtx, RecoveryError,
};
use caf_topology::{presets, ImageMap, Placement};
use caf_trace::Tracer;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Debug)]
struct DemoArgs {
    nodes: usize,
    cores: usize,
    images: usize,
    iters: usize,
    kill_node: Option<usize>,
    kill_after_ms: u64,
    tcp: bool,
    peer_timeout_ms: Option<u64>,
    run_timeout_ms: u64,
    /// Serve live /metrics + /healthz here while the fleet runs.
    obs_addr: Option<String>,
    /// Write fleet_trace.json + fleet_report.json into this directory
    /// after the run.
    trace_out: Option<String>,
    /// Children ship live telemetry this often; 0 disables.
    obs_interval_ms: u64,
    /// Keep the observability surface up this long after completion.
    linger_ms: u64,
    /// Repair a killed node by respawning it with a `Rejoin` handshake;
    /// the new incarnation restores from the checkpoint store.
    respawn: bool,
    /// Tolerate a killed node: survivors re-form the team without it and
    /// the fleet completes on the shrunken topology.
    shrink: bool,
    /// Checkpoint directory shared by all incarnations (`--ckpt-dir`, env
    /// `CAF_CKPT_DIR`). Respawn runs create a temporary one when unset.
    ckpt_dir: Option<String>,
    /// Checkpoint every K iterations in recovery mode — the rollback
    /// granularity (work since the last epoch boundary is recomputed).
    ckpt_every: usize,
}

impl Default for DemoArgs {
    fn default() -> Self {
        Self {
            nodes: 2,
            cores: 4,
            images: 8,
            iters: 50,
            kill_node: None,
            kill_after_ms: 200,
            tcp: false,
            peer_timeout_ms: None,
            run_timeout_ms: 60_000,
            obs_addr: None,
            trace_out: None,
            obs_interval_ms: 500,
            linger_ms: 0,
            respawn: false,
            shrink: false,
            ckpt_dir: std::env::var(ENV_CKPT_DIR).ok().filter(|s| !s.is_empty()),
            ckpt_every: 25,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: caf-launch demo --nodes N --cores C --images I [--iters K]\n\
         \x20                [--kill-node R --kill-after-ms T] [--tcp]\n\
         \x20                [--peer-timeout-ms T] [--run-timeout-ms T]\n\
         \x20                [--obs-addr HOST:PORT] [--trace-out DIR]\n\
         \x20                [--obs-interval-ms T] [--linger-ms T]\n\
         \x20                [--respawn | --shrink] [--ckpt-dir DIR] [--ckpt-every K]"
    );
    std::process::exit(2)
}

fn parse_demo(args: &[String]) -> DemoArgs {
    let mut out = DemoArgs::default();
    let mut it = args.iter();
    let next_val = |it: &mut std::slice::Iter<String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| {
                eprintln!("caf-launch: {flag} needs a value");
                usage()
            })
            .clone()
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => out.nodes = next_val(&mut it, a).parse().unwrap_or_else(|_| usage()),
            "--cores" => out.cores = next_val(&mut it, a).parse().unwrap_or_else(|_| usage()),
            "--images" => out.images = next_val(&mut it, a).parse().unwrap_or_else(|_| usage()),
            "--iters" => out.iters = next_val(&mut it, a).parse().unwrap_or_else(|_| usage()),
            "--kill-node" => {
                out.kill_node = Some(next_val(&mut it, a).parse().unwrap_or_else(|_| usage()))
            }
            "--kill-after-ms" => {
                out.kill_after_ms = next_val(&mut it, a).parse().unwrap_or_else(|_| usage())
            }
            "--tcp" => out.tcp = true,
            "--peer-timeout-ms" => {
                out.peer_timeout_ms = Some(next_val(&mut it, a).parse().unwrap_or_else(|_| usage()))
            }
            "--run-timeout-ms" => {
                out.run_timeout_ms = next_val(&mut it, a).parse().unwrap_or_else(|_| usage())
            }
            "--obs-addr" => out.obs_addr = Some(next_val(&mut it, a)),
            "--trace-out" => out.trace_out = Some(next_val(&mut it, a)),
            "--obs-interval-ms" => {
                out.obs_interval_ms = next_val(&mut it, a).parse().unwrap_or_else(|_| usage())
            }
            "--linger-ms" => {
                out.linger_ms = next_val(&mut it, a).parse().unwrap_or_else(|_| usage())
            }
            "--respawn" => out.respawn = true,
            "--shrink" => out.shrink = true,
            "--ckpt-dir" => out.ckpt_dir = Some(next_val(&mut it, a)),
            "--ckpt-every" => {
                out.ckpt_every = next_val(&mut it, a).parse().unwrap_or_else(|_| usage())
            }
            _ => {
                eprintln!("caf-launch: unknown flag {a}");
                usage()
            }
        }
    }
    out
}

fn demo_map(args: &DemoArgs) -> ImageMap {
    ImageMap::new(
        presets::mini(args.nodes, args.cores),
        args.images,
        &Placement::Packed,
    )
}

/// The launcher: `argv` — this process's own arguments — becomes every
/// child's, so a setting reaches the members by the flag that set it.
/// Only what a library reads from its environment (the checkpoint
/// directory) travels in `child_env`.
fn demo_parent(args: &DemoArgs, argv: Vec<String>) -> ExitCode {
    let mut child_env: Vec<(String, String)> = Vec::new();
    // Respawn needs a file-backed checkpoint store: a fresh incarnation
    // must read epochs its dead predecessor wrote.
    let mut ckpt_tmp: Option<std::path::PathBuf> = None;
    if let Some(dir) = &args.ckpt_dir {
        child_env.push((ENV_CKPT_DIR.into(), dir.clone()));
    } else if args.respawn {
        let dir = std::env::temp_dir().join(format!("caf-ckpt-{}", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("caf-launch: cannot create checkpoint dir {dir:?}: {e}");
            return ExitCode::FAILURE;
        }
        child_env.push((ENV_CKPT_DIR.into(), dir.to_string_lossy().into_owned()));
        ckpt_tmp = Some(dir);
    }
    let mut spec = match LaunchSpec::rerun(argv, &demo_map(args)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("caf-launch: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.tcp {
        // The coordinator here; each member's data plane in its `tweak`.
        spec.transport = Transport::Tcp;
    }
    spec.child_env = child_env;
    spec.run_timeout = Duration::from_millis(args.run_timeout_ms);
    spec.kill = args.kill_node.map(|rank| KillSpec {
        rank,
        after: Duration::from_millis(args.kill_after_ms),
    });
    spec.obs_linger = Duration::from_millis(args.linger_ms);
    spec.respawn = args.respawn;
    spec.shrink = args.shrink;
    if let Some(addr) = &args.obs_addr {
        match addr.parse() {
            Ok(a) => spec.obs_addr = Some(a),
            Err(e) => {
                eprintln!("caf-launch: bad --obs-addr {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = launch(&spec);
    if let Some(dir) = &ckpt_tmp {
        let _ = std::fs::remove_dir_all(dir);
    }
    match outcome {
        Ok(outcome) => {
            for (img, digest) in &outcome.results {
                println!("image {:>3}: digest {digest:#018x}", img + 1);
            }
            for (rank, generation) in &outcome.respawns {
                println!(
                    "caf-launch: node {rank} respawned and rejoined at recovery \
                     generation {generation}"
                );
            }
            for rank in &outcome.lost {
                println!("caf-launch: node {rank} lost; completed on the shrunken surviving team");
            }
            let feeds: Vec<NodeFeed> = outcome.telemetry.iter().flatten().cloned().collect();
            if let Some(dir) = &args.trace_out {
                if let Err(e) = write_fleet_artifacts(dir, &feeds) {
                    eprintln!("caf-launch: writing fleet artifacts to {dir} failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            print_fleet_summary(&feeds);
            println!(
                "caf-launch: fleet complete ({} images across {} processes)",
                outcome.results.len(),
                spec.node_images.len() - outcome.lost.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("caf-launch: fleet failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Write the merged Perfetto timeline and the machine-readable fleet
/// report into `dir`.
fn write_fleet_artifacts(dir: &str, feeds: &[NodeFeed]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let trace = std::path::Path::new(dir).join("fleet_trace.json");
    let report = std::path::Path::new(dir).join("fleet_report.json");
    std::fs::write(&trace, merged_chrome_json(feeds))?;
    std::fs::write(&report, fleet_report_json(feeds))?;
    println!(
        "caf-launch: wrote {} and {}",
        trace.display(),
        report.display()
    );
    Ok(())
}

/// Print the fleet-wide per-(team, op, level) percentile table — only when
/// the children actually captured trace events (i.e. a `trace` build).
fn print_fleet_summary(feeds: &[NodeFeed]) {
    let (headers, rows) = fleet_summary(feeds);
    if rows.is_empty() {
        return;
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    println!("fleet trace summary:");
    let fmt_row = |cells: &[String]| {
        let line = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ");
        println!("  {line}");
    };
    fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in &rows {
        fmt_row(row);
    }
}

fn demo_member(env: ChildEnv, args: &DemoArgs) -> ExitCode {
    let map = demo_map(args);
    // Always install a per-image tracer: it records every fabric operation
    // into per-image rings, shipped in telemetry — the flight recorder's
    // window — and merged by the parent into `--trace-out`'s timeline.
    let tracer = Tracer::for_images(map.n_images());
    let live_every = Some(args.obs_interval_ms)
        .filter(|ms| *ms > 0)
        .map(Duration::from_millis);
    let iters = args.iters;
    let recover = args.respawn || args.shrink;
    // One store per process, shared by its image threads; file-backed when
    // the supervisor exported CAF_CKPT_DIR (respawn), in-memory otherwise.
    let store = Arc::new(CheckpointStore::from_env());
    let every = args.ckpt_every.max(1);
    member(
        env,
        map,
        CollectiveConfig::two_level(),
        live_every,
        |cfg| {
            cfg.tracer = tracer;
            if args.tcp {
                cfg.transport = Transport::Tcp;
            }
            if let Some(ms) = args.peer_timeout_ms {
                cfg.peer_timeout = Duration::from_millis(ms);
                cfg.heartbeat_period = Duration::from_millis((ms / 4).max(10));
            }
        },
        move |img: &mut ImageCtx| {
            if recover {
                img.recovering(MAX_RECOVERIES, |img| demo_epochs(img, &store, iters, every))
                    .unwrap_or_else(|e| panic!("image {} could not recover: {e}", img.this_image()))
            } else {
                let me = img.this_image() as u64;
                let mut h: u64 = DIGEST_SEED;
                for _ in 0..iters {
                    let mut v = [me];
                    img.co_sum(&mut v);
                    h ^= v[0];
                    h = h.wrapping_mul(DIGEST_PRIME);
                    img.sync_all();
                }
                h
            }
        },
    )
}

/// FNV-1a offset basis / prime: the demo digest accumulator.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const DIGEST_PRIME: u64 = 0x0000_0100_0000_01b3;
/// How many team re-formations an image rides out before giving up.
const MAX_RECOVERIES: usize = 2;

/// The restart-shaped demo body: roll back to the last globally complete
/// checkpoint epoch (none on first launch), then run the remaining
/// iterations, checkpointing the digest accumulator every `every`-th one.
/// The same shape serves first launches, shrink survivors, and respawned
/// rejoiners: `recovering` re-runs it from the top after every team
/// re-formation, and `restore` decides where to resume.
fn demo_epochs(
    img: &mut ImageCtx,
    store: &CheckpointStore,
    iters: usize,
    every: usize,
) -> Result<u64, RecoveryError> {
    let me = img.this_image() as u64;
    let mut h: u64 = DIGEST_SEED;
    // Epoch e was committed after iteration e*every, so that's where a
    // rollback resumes; iterations past the last boundary are recomputed.
    let start = match img.restore(store)? {
        Some((epoch, payloads)) => {
            h = u64::from_le_bytes(payloads[0][..8].try_into().expect("digest payload"));
            epoch as usize * every
        }
        None => 0,
    };
    img.try_sync_all()?;
    for it in start..iters {
        let mut v = [me];
        img.try_co_sum(&mut v)?;
        h ^= v[0];
        h = h.wrapping_mul(DIGEST_PRIME);
        img.try_sync_all()?;
        if (it + 1) % every == 0 {
            img.checkpoint(store, |_| vec![h.to_le_bytes().to_vec()])?;
        }
    }
    Ok(h)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match argv.split_first() {
        Some((program, flags)) if program == "demo" => parse_demo(flags),
        _ => usage(),
    };
    match ChildEnv::detect() {
        Some(env) => demo_member(env, &args),
        None => demo_parent(&args, argv),
    }
}
