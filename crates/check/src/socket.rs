//! The fleet columns of the differential oracle: run the conformance
//! program on a real multi-process
//! [`SocketFabric`](caf_fabric::SocketFabric) fleet and diff its per-image
//! digests against the deterministic simulator.
//!
//! The sim explores schedules, the thread fabric exposes OS interleavings;
//! neither exercises the wire — framing, the put-ack protocol, connection
//! lifecycle, cross-process flag delivery — or the shared-memory tier.
//! These columns do: the parent re-executes **its own binary** once per
//! node through [`LaunchSpec::rerun`], with the cell in every child's argv,
//! and each child — a process that finds the launcher's variables — is a
//! [`caf_launch::member`] around the same conformance program
//! ([`conformance_member`]): it joins the fleet over real sockets, runs it
//! through the full runtime stack, and reports digests (and telemetry)
//! back over the coordinator connection.

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
    /// Conformance repetitions per attempt: every rep produces the same
    /// digest, so the oracle is unchanged, and the repeats hold the fleet
    /// in flight long enough for the kill to land mid-collective.
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
/// called from a binary whose members run [`conformance_member`] — the
/// fleet re-executes the current executable.
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

/// The launch behind [`fleet_digests`]: this executable re-run once per
/// occupied node with the cell in the children's argv — `<scenario>
/// <algo>`, plus the drill's repetitions — which [`conformance_member`]
/// reads back. The tier pin is the fabric's own variable, so it rides in
/// the **children's** environment: nothing is written to this process's
/// own, and one cell's settings cannot leak into the next.
pub fn fleet_spec(
    scn: &Scenario,
    algo_name: &str,
    drill: Option<&RecoverDrill>,
    shm: Option<bool>,
) -> Result<LaunchSpec, String> {
    let mut cell = vec![scn.name.clone(), algo_name.to_string()];
    cell.extend(drill.map(|d| d.reps.max(1).to_string()));
    let mut spec = LaunchSpec::rerun(cell, &placed(scn))
        .map_err(|e| format!("cannot find own executable: {e}"))?;
    spec.run_timeout = Duration::from_secs(120);
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

/// The fleet column: one (scenario, algorithm) cell checked bit-for-bit
/// against the default-sim oracle, after (a) the same oracle re-derived
/// under each chaos seed proves the reference digests
/// schedule-independent, on (b) a real fleet with the zero-copy shm tier
/// forced **on** and (c) the identical fleet with `CAF_SOCKET_SHM=0` —
/// the pure wire protocol (framing, put acks, connection lifecycle). The
/// shm tier changes *how* intranode bytes move (memcpy + atomics instead
/// of frames + acks) but must never change *what* any image computes; the
/// failure's kind names the fleet that diverged.
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
    for (fleet, shm) in [("shm fleet", true), ("wire fleet", false)] {
        let digests = match fleet_digests(scn, algo_name, None, Some(shm)) {
            Ok((v, _)) => v,
            Err(e) => return Err(fail(fleet.into(), None, format!("fleet failed: {e}"))),
        };
        report.runs += 1;
        if let Some(detail) = diff(&oracle, &Ok(digests)) {
            return Err(fail(format!("{fleet} vs sim oracle"), None, detail));
        }
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

/// The cell [`fleet_spec`] wrote into every child's argv: scenario,
/// algorithm and, for a drill, the repetitions.
fn read_cell(cell: &[String]) -> Option<(Scenario, CollectiveConfig, Option<usize>)> {
    let (scn, algo, reps) = match cell {
        [scn, algo] => (scn, algo, None),
        [scn, algo, reps] => (scn, algo, Some(reps.parse().ok()?)),
        _ => return None,
    };
    Some((Scenario::by_name(scn)?, algo_by_name(algo)?, reps))
}

/// A conformance fleet member: the process `env` describes, running the
/// cell of its argv on this node's images. Returns the process exit code.
pub fn conformance_member(env: ChildEnv, cell: &[String]) -> ExitCode {
    let Some((scn, algo, reps)) = read_cell(cell) else {
        eprintln!("caf-check member: expected `<scenario> <algo> [<reps>]`, got {cell:?}");
        return ExitCode::from(2);
    };
    // A drill's member rides out a peer death (the poison panic is caught
    // by `recovering`), re-forms the team — full again once the victim
    // rejoins — and restarts conformance from the top. No checkpoints, so
    // a correct recovery reproduces the undisturbed digests exactly.
    let body = move |img: &mut ImageCtx| match reps {
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
    member(env, placed(&scn), algo, None, |_| {}, body)
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
        // A member reads back the cell its parent wrote into its argv.
        let drill = RecoverDrill {
            kill_node: 1,
            kill_after: Duration::from_millis(1),
            reps: 7,
        };
        for (drill, reps) in [(None, None), (Some(&drill), Some(7))] {
            let spec = fleet_spec(&Scenario::tiny(), "reduce=Rabenseifner", drill, None).unwrap();
            let (scn, algo, got) = read_cell(&spec.command[1..]).expect("cell");
            assert_eq!(scn.name, "tiny-2x2");
            assert_eq!(Some(algo), algo_by_name("reduce=Rabenseifner"));
            assert_eq!(got, reps);
        }
        assert!(read_cell(&["tiny-2x2".into()]).is_none());
        assert!(read_cell(&["tiny-2x2".into(), "auto".into(), "x".into()]).is_none());
    }
}
