//! `caf-benchmark --smoke`: all six workloads at roughly 1/20 scale,
//! each in its own child process exactly as a full set runs them. Every
//! workload must come back correct, and the whole set within 20 seconds.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_set_runs_every_workload_correctly_in_under_20_s() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = "benchmark/out/smoke-test.json";
    let t0 = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_caf-benchmark"))
        .args(["--smoke", "--trace", "--out", out])
        .current_dir(&repo)
        .output()
        .expect("spawn caf-benchmark");
    let took = t0.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke set failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(took < Duration::from_secs(20), "smoke set took {took:?}");
    let results = std::fs::read_to_string(repo.join(out)).expect("results file");
    for name in [
        "hpl-fleet",
        "smallop-wire",
        "smallop-shm",
        "bulk-wire",
        "paper-sim",
        "sim-scale",
    ] {
        assert!(
            results.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
    assert!(
        !results.contains("\"correct\": false"),
        "a workload was incorrect:\n{stdout}"
    );
    assert!(
        results.contains("\"cpu_model\""),
        "environment block missing"
    );
}
