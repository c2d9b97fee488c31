//! # caf-runtime
//!
//! A Coarray Fortran-style PGAS runtime: SPMD images, coarrays, teams
//! (Fortran 2015 `form team` / `change team` / `end team` / `sync team`),
//! synchronization statements, events, and atomic operations — the runtime
//! layer the paper adds to the OpenUH compiler, reimplemented as a Rust
//! library API.
//!
//! The API mirrors the *lowered* form OpenUH emits for CAF programs: what
//! the Fortran front-end turns `sync all` or `A(:)[k] = B(:)` into is here
//! a method call on the per-image context [`ImageCtx`].
//!
//! ```no_run
//! use caf_runtime::{run, RunConfig};
//!
//! // 8 images on a 2-node simulated cluster, Fortran-style 1-based images.
//! let cfg = RunConfig::sim_packed(caf_topology::presets::mini(2, 4), 8);
//! run(cfg, |img| {
//!     let me = img.this_image(); // 1..=8
//!     let co = img.coarray::<f64>(4);
//!     if me == 1 {
//!         co.put(2, 0, &[1.0, 2.0, 3.0, 4.0]); // A(:)[2] = ...
//!     }
//!     img.sync_all();
//!     me
//! });
//! ```
//!
//! Image numbering follows Fortran: **1-based** everywhere in this crate's
//! public API. The 0-based process ranks of `caf-topology`/`caf-fabric`
//! stay internal.

#![warn(missing_docs)]

pub mod coarray;
pub mod config;
pub mod events;
pub mod image;
pub mod lock;
pub mod recovery;
pub mod team;

pub use caf_collectives::{
    BarrierAlgo, BcastAlgo, CoNumeric, CoOp, CoValue, CollectiveConfig, GatherAlgo, ReduceAlgo,
    SizePolicy,
};
pub use caf_fabric::RecoveryError;
pub use coarray::Coarray;
pub use config::{FabricChoice, RunConfig};
pub use events::Events;
pub use image::ImageCtx;
pub use lock::LockSet;
pub use recovery::CheckpointStore;
pub use team::Team;

use caf_fabric::ArcFabric;
use caf_topology::ProcId;

/// Launch an SPMD run: one OS thread per image, each executing `body` with
/// its own [`ImageCtx`]. Returns the per-image results in image order
/// (index 0 = image 1). Panics in any image are re-raised after all images
/// have been joined.
pub fn run<R, B>(cfg: RunConfig, body: B) -> Vec<R>
where
    R: Send + 'static,
    B: Fn(&mut ImageCtx) -> R + Send + Sync + 'static,
{
    let collectives = cfg.collectives;
    let fabric = cfg.build_fabric();
    run_on_fabric(fabric, collectives, body)
}

/// Like [`run`], but on an existing fabric (benchmark harnesses reuse one
/// fabric across phases to keep its statistics and virtual clock).
pub fn run_on_fabric<R, B>(fabric: ArcFabric, collectives: CollectiveConfig, body: B) -> Vec<R>
where
    R: Send + 'static,
    B: Fn(&mut ImageCtx) -> R + Send + Sync + 'static,
{
    let all: Vec<ProcId> = (0..fabric.n_images()).map(ProcId).collect();
    run_hosted(fabric, &all, collectives, body)
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

/// Like [`run_on_fabric`], but spawning threads only for `hosted` — the
/// subset of images this process is responsible for. This is the entry
/// point for multi-process backends (`SocketFabric` fleets launched by
/// `caf-launch`): every process calls `run_hosted` with its own node's
/// images and the fabric carries the rest of the team over the wire.
/// Returns `(image rank, result)` pairs in `hosted` order (ranks 0-based,
/// matching `ProcId`).
pub fn run_hosted<R, B>(
    fabric: ArcFabric,
    hosted: &[ProcId],
    collectives: CollectiveConfig,
    body: B,
) -> Vec<(ProcId, R)>
where
    R: Send + 'static,
    B: Fn(&mut ImageCtx) -> R + Send + Sync + 'static,
{
    run_ctx(fabric, hosted, collectives, Entry::Fresh, body)
}

/// Like [`run_hosted`], but for a **respawned** process rejoining a
/// running fleet: every hosted image enters via [`ImageCtx::rejoin`] —
/// joining the survivors' recovery fence instead of the initial-team
/// bootstrap — and comes up inside the recovery team at checkpoint epoch
/// 0. The body is expected to [`ImageCtx::restore`] and resume; write it
/// restart-shaped (restore-then-loop) and the same closure serves first
/// launches, survivors, and rejoiners alike.
pub fn run_hosted_rejoin<R, B>(
    fabric: ArcFabric,
    hosted: &[ProcId],
    collectives: CollectiveConfig,
    body: B,
) -> Vec<(ProcId, R)>
where
    R: Send + 'static,
    B: Fn(&mut ImageCtx) -> R + Send + Sync + 'static,
{
    run_ctx(fabric, hosted, collectives, Entry::Rejoin, body)
}

/// Like [`run_on_fabric`], but for recovery-aware programs on a fabric
/// that may lose images: panics of images the fabric reports dead (a chaos
/// `kill_image_at`, a crashed peer) are tolerated instead of re-raised,
/// and a dead image's thread does not poison the fabric — the survivors'
/// `try_*` entry points detect the failure and the body is expected to
/// recover via `form_recovery_team`/`restore`. Panics of images the fabric
/// still considers alive are real bugs and re-raise as in [`run`].
///
/// Returns `(1-based image, result)` pairs for the images that completed,
/// in image order.
pub fn run_surviving<R, B>(
    fabric: ArcFabric,
    collectives: CollectiveConfig,
    body: B,
) -> Vec<(usize, R)>
where
    R: Send + 'static,
    B: Fn(&mut ImageCtx) -> R + Send + Sync + 'static,
{
    let all: Vec<ProcId> = (0..fabric.n_images()).map(ProcId).collect();
    run_ctx(fabric, &all, collectives, Entry::Surviving, body)
        .into_iter()
        .map(|(p, r)| (p.index() + 1, r))
        .collect()
}

/// How the image threads of one [`run_ctx`] come up and go down.
#[derive(Clone, Copy, PartialEq)]
enum Entry {
    /// First launch: the initial-team bootstrap.
    Fresh,
    /// A respawned process: [`ImageCtx::rejoin`].
    Rejoin,
    /// First launch on a fabric that may retire images mid-run.
    Surviving,
}

/// The `run*` family: [`caf_fabric::run_images`] with Fortran numbering
/// around an [`ImageCtx`] per image, plus this process's telemetry spill
/// on the way out.
fn run_ctx<R, B>(
    fabric: ArcFabric,
    images: &[ProcId],
    collectives: CollectiveConfig,
    entry: Entry,
    body: B,
) -> Vec<(ProcId, R)>
where
    R: Send,
    B: Fn(&mut ImageCtx) -> R + Sync,
{
    let run = caf_fabric::run_images(
        images,
        1,
        |why| fabric.poison(why),
        // A fabric-killed image's unwind is the *expected* path; poisoning
        // there would re-poison a fabric the survivors may already have
        // healed.
        |p| entry == Entry::Surviving && !fabric.alive_images().contains(&p),
        |p| {
            let mut ctx = if entry == Entry::Rejoin {
                ImageCtx::rejoin(fabric.clone(), p, collectives).unwrap_or_else(|e| {
                    panic!("image {} failed to rejoin the fleet: {e}", p.index() + 1)
                })
            } else {
                ImageCtx::new(fabric.clone(), p, collectives)
            };
            let out = body(&mut ctx);
            ctx.finalize();
            out
        },
    );
    match run {
        Ok(results) => {
            spill_telemetry(&fabric, caf_fabric::TelemetryPhase::Final, None);
            results
        }
        Err(msg) => {
            // Flight recorder: spill this process's telemetry (counters,
            // wire probes, trace window) before taking the process down,
            // so the supervisor can reconstruct what the node saw even
            // when the control connection never gets the frame out.
            spill_telemetry(
                &fabric,
                caf_fabric::TelemetryPhase::FlightRecorder,
                Some(&msg),
            );
            panic!("{msg}");
        }
    }
}

/// If `CAF_TRACE_DIR` is set and the fabric produces process telemetry
/// (the socket fabric does, a threaded run's included; the simulator does
/// not), write the encoded blob to
/// `$CAF_TRACE_DIR/caf-telemetry-node<R>-<phase>.bin`. Failures are
/// reported on stderr but never escalate — observability must not take
/// down an otherwise healthy run (nor mask the real panic on an unhealthy
/// one).
fn spill_telemetry(fabric: &ArcFabric, phase: caf_fabric::TelemetryPhase, cause: Option<&str>) {
    let Ok(dir) = std::env::var("CAF_TRACE_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let Some(telemetry) = fabric.process_telemetry(phase, cause) else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!(
        "caf-telemetry-node{}-{}.bin",
        telemetry.node,
        phase.label()
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, telemetry.encode()))
    {
        eprintln!(
            "caf-runtime: telemetry spill to {} failed: {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_topology::presets;

    #[test]
    fn run_returns_results_in_image_order() {
        let cfg = RunConfig::sim_packed(presets::mini(2, 2), 4);
        let out = run(cfg, |img| img.this_image() * 10);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    #[should_panic(expected = "image 3 panicked")]
    fn run_propagates_panics_with_image_number() {
        let cfg = RunConfig::sim_packed(presets::mini(1, 4), 4);
        run(cfg, |img| {
            if img.this_image() == 3 {
                panic!("bad image");
            }
        });
    }

    #[test]
    fn run_on_thread_fabric_smoke() {
        let cfg = RunConfig::threads_packed(presets::mini(2, 2), 4);
        let out = run(cfg, |img| {
            img.sync_all();
            img.num_images()
        });
        assert_eq!(out, vec![4; 4]);
    }
}
