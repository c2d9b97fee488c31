//! End-to-end test of the fleet column: the `caf-check` binary launches
//! real child processes over real sockets — the shm tier on, then the
//! pure wire — and diffs each fleet's conformance digests against the sim
//! oracle.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_caf-check");

#[test]
fn shm_and_wire_fleets_match_the_sim_oracle() {
    let out = Command::new(BIN)
        .arg("--shm-only")
        // Two cells keep the test quick while still covering both a preset
        // and a forced large-message reduction over the wire.
        .env("CAF_CHECK_SOCKET_ALGOS", "auto,reduce=Rabenseifner")
        .output()
        .expect("run caf-check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "fleet column must match the oracle\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("shared-memory tier and wire fleets matched the sim oracle")
            && stdout.contains("2 algo configs, 10 runs"),
        "expected the fleet-column banner, got:\n{stdout}"
    );
}
