//! The tier pin reaches a conformance fleet's children through *their*
//! environment: the parent's stays as it was (so one cell cannot steer the
//! next), and the pin still steers the children — seen in the `Final`
//! telemetry every conformance member ships.

use caf_check::socket::fleet_spec;
use caf_check::Scenario;
use caf_fabric::TelemetryPhase;

/// `shm_puts` per process of a tiny (2 processes x 2 images) fleet with
/// the shared-memory tier pinned on or off.
fn shm_puts_with(shm: bool) -> Vec<u64> {
    let mut spec = fleet_spec(&Scenario::tiny(), "auto", None, Some(shm)).expect("spec");
    // `fleet_spec` re-runs the current executable, which here is the test
    // harness; the children are the real binary.
    spec.command[0] = env!("CARGO_BIN_EXE_caf-check").into();
    let outcome = caf_launch::launch(&spec).expect("fleet");
    assert_eq!(outcome.results.len(), 4);
    (outcome.telemetry.iter())
        .map(|feed| {
            let t = &feed
                .as_ref()
                .expect("every child ships telemetry")
                .telemetry;
            assert_eq!(t.phase, TelemetryPhase::Final);
            t.stats.shm_puts
        })
        .collect()
}

#[test]
fn the_tier_pin_steers_the_children_and_leaves_the_parent_alone() {
    let watched = ["CAF_SOCKET_SHM"];
    let before = watched.map(std::env::var);
    let wire_only = shm_puts_with(false);
    assert_eq!(wire_only, vec![0, 0], "children did not run wire-only");
    assert_eq!(watched.map(std::env::var), before, "after shm = off");
    let mapped = shm_puts_with(true);
    assert!(mapped.iter().all(|n| *n > 0), "shm tier unused: {mapped:?}");
    assert_eq!(watched.map(std::env::var), before, "after shm = on");
}
