//! The third backend column of the differential oracle: run the
//! conformance program on a real multi-process
//! [`SocketFabric`](caf_fabric::SocketFabric) fleet and diff its per-image
//! digests against the deterministic simulator.
//!
//! The sim explores schedules, the thread fabric exposes OS interleavings;
//! neither exercises the wire — framing, the put-ack protocol, connection
//! lifecycle, cross-process flag delivery. This column does: the parent
//! (`caf-check --socket`) re-executes **its own binary** once per node with
//! the hidden `--socket-child` flag via the `caf-launch` supervisor, and
//! each child is a [`caf_launch::member`] around the same conformance
//! program: it joins the fleet over real sockets, runs it through the full
//! runtime stack, and reports digests (and telemetry) back over the
//! coordinator connection.

use crate::harness::{diff, CheckReport, Failure};
use crate::scenario::{algo_by_name, conformance, Scenario};
use caf_collectives::CollectiveConfig;
use caf_fabric::socket::shm;
use caf_fabric::ChaosConfig;
use caf_launch::{launch, member, ChildEnv, KillSpec, LaunchSpec};
use caf_runtime::{run, FabricChoice, ImageCtx, RunConfig};
use caf_topology::{ImageMap, Placement};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Duration;

/// Environment variable carrying the scenario label to `--socket-child`.
pub const ENV_SCENARIO: &str = "CAF_CHECK_SCENARIO";
/// Environment variable carrying the algorithm-cell label.
pub const ENV_ALGO: &str = "CAF_CHECK_ALGO";
/// Environment variable telling `--socket-child` to run the conformance
/// program inside [`ImageCtx::recovering`] — required by the
/// kill-and-recover drill, where survivors must ride out a peer death and
/// re-run from the top instead of aborting. Its value is the repetition
/// count: the body loops conformance that many times (every rep produces
/// the same digest, so the oracle is unchanged) purely to hold the fleet
/// in flight long enough for the scheduled kill to land mid-run.
pub const ENV_RECOVER: &str = "CAF_CHECK_RECOVER";

/// The kill-and-recover drill plan: which node the launcher kills, and
/// when. The fleet runs with `respawn` on, so the dead node is revived,
/// rejoins at the next recovery generation, and the whole team restarts
/// the conformance program — whose digests must then match the
/// undisturbed sim oracle bit-for-bit.
#[derive(Clone, Copy, Debug)]
pub struct RecoverDrill {
    /// Node rank of the victim process.
    pub kill_node: usize,
    /// Delay from supervision start to the kill.
    pub kill_after: Duration,
    /// Conformance repetitions per attempt — stretches the run so the
    /// kill reliably lands mid-collective (see [`ENV_RECOVER`]).
    pub reps: usize,
}

fn placed(scn: &Scenario) -> ImageMap {
    ImageMap::new(scn.machine.clone(), scn.images, &Placement::Packed)
}

/// Per-image digests plus the respawn events `(node, generation)` the
/// supervisor repaired during the run.
pub type DrilledDigests = (Vec<u64>, Vec<(usize, u64)>);

/// Run the conformance program on a real socket fleet (one process per
/// occupied node) and return per-image digests in image order, with
/// optional fault injection and an explicit transport-tier pin. Must be
/// called from a binary that dispatches `--socket-child` to
/// [`socket_child_main`] — the fleet re-executes `current_exe()`.
///
/// With a [`RecoverDrill`], the fleet runs respawn-supervised, the victim
/// is killed on schedule, and the respawn events `(node, generation)` the
/// supervisor repaired are returned alongside the digests. `shm` of
/// `Some(true)`/`Some(false)` forces
/// `CAF_SOCKET_SHM` on/off in the children's environment (the
/// shared-memory intranode tier vs. the pure-wire path); `None` leaves
/// the inherited setting alone.
pub fn fleet_digests(
    scn: &Scenario,
    algo_name: &str,
    drill: Option<&RecoverDrill>,
    shm: Option<bool>,
) -> Result<DrilledDigests, String> {
    let spec = fleet_spec(scn, algo_name, drill, shm)?;
    let outcome = launch(&spec).map_err(|e| e.to_string())?;
    if outcome.results.len() != scn.images {
        return Err(format!(
            "fleet reported {} results for {} images",
            outcome.results.len(),
            scn.images
        ));
    }
    for (i, (img, _)) in outcome.results.iter().enumerate() {
        if *img as usize != i {
            return Err(format!("fleet results missing image {}", i + 1));
        }
    }
    Ok((
        outcome.results.into_iter().map(|(_, d)| d).collect(),
        outcome.respawns,
    ))
}

/// The launch behind [`fleet_digests`]: this executable re-run as
/// `--socket-child` once per occupied node, with the cell (scenario,
/// algorithm, tier pin, drill repetitions) in the **children's**
/// environment — argv stays fixed across the sweep, and nothing is
/// written to this process's own environment, so one cell's settings
/// cannot leak into the next.
pub fn fleet_spec(
    scn: &Scenario,
    algo_name: &str,
    drill: Option<&RecoverDrill>,
    shm: Option<bool>,
) -> Result<LaunchSpec, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot find own executable: {e}"))?
        .to_string_lossy()
        .into_owned();
    let mut spec = LaunchSpec::new(vec![exe, "--socket-child".into()], &placed(scn));
    spec.run_timeout = Duration::from_secs(120);
    spec.child_env = vec![
        (ENV_SCENARIO.into(), scn.name.clone()),
        (ENV_ALGO.into(), algo_name.into()),
    ];
    if let Some(on) = shm {
        let value = if on { "1" } else { "0" };
        spec.child_env.push((shm::ENV_SHM.into(), value.into()));
    }
    if let Some(d) = drill {
        if d.kill_node >= spec.node_images.len() {
            return Err(format!(
                "drill kills node {} but the fleet has {} processes",
                d.kill_node,
                spec.node_images.len()
            ));
        }
        let reps = d.reps.max(1).to_string();
        spec.child_env.push((ENV_RECOVER.into(), reps));
        spec.respawn = true;
        spec.kill = Some(KillSpec {
            rank: d.kill_node,
            after: d.kill_after,
        });
    }
    Ok(spec)
}

/// The conformance digests of one cell on the simulator — the oracle
/// every fleet column diffs against; under `chaos`, the same oracle
/// re-derived on a perturbed schedule.
fn sim_digests(
    scn: &Scenario,
    algo: CollectiveConfig,
    chaos: Option<ChaosConfig>,
) -> Result<Vec<u64>, String> {
    let cfg = RunConfig {
        machine: scn.machine.clone(),
        images: scn.images,
        placement: Placement::Packed,
        fabric: FabricChoice::Sim(caf_fabric::SimConfig {
            chaos,
            ..caf_fabric::SimConfig::default()
        }),
        collectives: algo,
    };
    catch_unwind(AssertUnwindSafe(|| run(cfg, conformance)))
        .map_err(|_| "sim run panicked".to_string())
}

/// A fleet column's divergence report: no shrunken chaos config, no trace
/// window — the fleet's own report is in `detail`.
fn failure(
    scn: &Scenario,
    algo_name: &str,
    kind: &str,
    seed: Option<u64>,
    detail: String,
) -> Box<Failure> {
    Box::new(Failure {
        scenario: scn.name.clone(),
        algo: algo_name.to_string(),
        kind: kind.into(),
        seed,
        minimal: None,
        detail,
        trace_window: String::new(),
    })
}

/// Differentially check one (scenario, algorithm) cell on the socket
/// backend: default-sim oracle vs. a real fleet, with the shared-memory
/// tier pinned **off** so this column keeps exercising the pure wire
/// protocol (framing, put acks, connection lifecycle) as the differential
/// oracle for the shm column. Returns run counts or a rendered-ready
/// [`Failure`] whose kind is `"socket"`.
pub fn check_socket(
    scn: &Scenario,
    algo_name: &str,
    algo: CollectiveConfig,
) -> Result<CheckReport, Box<Failure>> {
    let fail = |detail: String| failure(scn, algo_name, "socket", None, detail);
    let oracle =
        sim_digests(scn, algo, None).map_err(|_| fail("oracle (default sim) panicked".into()))?;
    let got: Result<Vec<u64>, String> = match fleet_digests(scn, algo_name, None, Some(false)) {
        Ok((v, _)) => Ok(v),
        Err(e) => return Err(fail(format!("fleet failed: {e}"))),
    };
    if let Some(detail) = diff(&oracle, &got) {
        return Err(fail(detail));
    }
    Ok(CheckReport {
        runs: 2,
        chaos_runs: 0,
        fault_runs: 0,
    })
}

/// The shared-memory column: one (scenario, algorithm) cell run on a real
/// fleet with the zero-copy shm tier forced **on**, diffed bit-for-bit
/// against (a) the default-sim oracle, (b) the same oracle re-derived
/// under each chaos seed (proving the reference digests are
/// schedule-independent before trusting them), and (c) the identical
/// fleet with `CAF_SOCKET_SHM=0` — the pure-wire differential oracle. The
/// shm tier changes *how* intranode bytes move (memcpy + atomics instead
/// of frames + acks) but must never change *what* any image computes; a
/// divergence here is a shm ordering, visibility, or reset bug.
pub fn check_shm(
    scn: &Scenario,
    algo_name: &str,
    algo: CollectiveConfig,
    chaos_seeds: &[u64],
) -> Result<CheckReport, Box<Failure>> {
    let fail = |kind: String, seed, detail| failure(scn, algo_name, &kind, seed, detail);
    let sim = |chaos| sim_digests(scn, algo, chaos);
    let mut report = CheckReport::default();
    let oracle = sim(None).map_err(|e| fail("shm oracle (default sim)".into(), None, e))?;
    report.runs += 1;
    // The oracle must be schedule-independent before a fleet is held to
    // it: re-derive it under every chaos seed and demand bit-equality.
    for &seed in chaos_seeds {
        let chaotic = sim(Some(ChaosConfig::from_seed(seed)));
        report.runs += 1;
        report.chaos_runs += 1;
        if let Some(detail) = diff(&oracle, &chaotic) {
            return Err(fail(
                format!("shm oracle under chaos seed {seed}"),
                Some(seed),
                detail,
            ));
        }
    }
    let shm_on = match fleet_digests(scn, algo_name, None, Some(true)) {
        Ok((v, _)) => v,
        Err(e) => return Err(fail("shm fleet".into(), None, format!("fleet failed: {e}"))),
    };
    report.runs += 1;
    if let Some(detail) = diff(&oracle, &Ok(shm_on.clone())) {
        return Err(fail("shm fleet vs sim oracle".into(), None, detail));
    }
    let shm_off = match fleet_digests(scn, algo_name, None, Some(false)) {
        Ok((v, _)) => v,
        Err(e) => {
            return Err(fail(
                "wire fleet".into(),
                None,
                format!("fleet failed: {e}"),
            ))
        }
    };
    report.runs += 1;
    if let Some(detail) = diff(&shm_on, &Ok(shm_off)) {
        return Err(fail("shm fleet vs wire fleet".into(), None, detail));
    }
    Ok(report)
}

/// The kill-and-recover drill: a respawn-supervised fleet loses one node
/// mid-run, repairs it, the full team restarts the conformance program —
/// and the final per-image digests must match the **undisturbed**
/// sim-oracle run bit-for-bit. The conformance program keeps no
/// checkpoints, so recovery means a clean global restart on the rejoined
/// team; any state the fabric failed to reset (a stale flag count, a
/// half-applied put, a surviving pre-death frame) shows up as a digest
/// divergence.
///
/// A fast fleet can finish before the scheduled kill lands; such a run
/// proves nothing about recovery, so the drill retries with the remaining
/// attempts and fails if the kill never landed.
pub fn check_recover(
    scn: &Scenario,
    algo_name: &str,
    algo: CollectiveConfig,
    drill: &RecoverDrill,
    attempts: usize,
) -> Result<CheckReport, Box<Failure>> {
    let fail = |detail: String| failure(scn, algo_name, "kill-and-recover", None, detail);
    let oracle =
        sim_digests(scn, algo, None).map_err(|_| fail("oracle (default sim) panicked".into()))?;
    for attempt in 1..=attempts.max(1) {
        let (digests, respawns) = match fleet_digests(scn, algo_name, Some(drill), None) {
            Ok(pair) => pair,
            Err(e) => return Err(fail(format!("drill fleet failed: {e}"))),
        };
        if let Some(detail) = diff(&oracle, &Ok(digests)) {
            return Err(fail(format!(
                "recovered fleet diverged from the undisturbed oracle: {detail}"
            )));
        }
        if !respawns.is_empty() {
            return Ok(CheckReport {
                runs: 1 + attempt,
                chaos_runs: 0,
                fault_runs: attempt,
            });
        }
        eprintln!(
            "caf-check: kill-and-recover on {} / {algo_name}: fleet finished before \
             the kill landed (attempt {attempt}/{attempts})",
            scn.name
        );
    }
    Err(fail(format!(
        "the scheduled kill (node {} after {:?}) never landed in {attempts} attempts — \
         the drill exercised nothing; lower --kill-after-ms or raise iterations",
        drill.kill_node, drill.kill_after
    )))
}

/// Entry point for the hidden `--socket-child` mode: be the fleet member
/// the launcher environment describes ([`caf_launch::member`]), running
/// conformance on this node's images. Returns the process exit code.
pub fn socket_child_main() -> ExitCode {
    let named =
        |var: &str| std::env::var(var).map_err(|_| eprintln!("--socket-child: {var} not set"));
    let (Ok(scn_name), Ok(algo_name)) = (named(ENV_SCENARIO), named(ENV_ALGO)) else {
        return ExitCode::from(2);
    };
    let (Some(scn), Some(algo)) = (Scenario::by_name(&scn_name), algo_by_name(&algo_name)) else {
        eprintln!("--socket-child: unknown scenario {scn_name:?} or algos {algo_name:?}");
        return ExitCode::from(2);
    };
    let recover_reps: Option<usize> = std::env::var(ENV_RECOVER).ok().and_then(|v| v.parse().ok());
    // Recovery mode: ride out a peer death (the poison panic is caught by
    // `recovering`), re-form the team — full again once the victim
    // rejoins — and restart conformance from the top. No checkpoints, so
    // a correct recovery reproduces the undisturbed digests exactly.
    let body = move |img: &mut ImageCtx| match recover_reps {
        Some(reps) => img
            .recovering(2, |img| {
                let mut digest = 0;
                for _ in 0..reps.max(1) {
                    digest = conformance(img);
                }
                Ok(digest)
            })
            .unwrap_or_else(|e| panic!("image {} could not recover: {e}", img.this_image())),
        None => conformance(img),
    };
    member(ChildEnv::detect(), placed(&scn), algo, None, |_| {}, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_and_algo_lookups_roundtrip() {
        assert!(Scenario::by_name("mini-2x4").is_some());
        assert!(Scenario::by_name("no-such").is_none());
        assert!(algo_by_name("reduce=Rabenseifner").is_some());
        assert!(algo_by_name("bogus").is_none());
    }
}
