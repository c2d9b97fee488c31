//! End-to-end launcher tests: a real multi-process fleet over real sockets,
//! including the fault drill the issue demands — kill one child
//! mid-collective and the launcher must report the dead image ranks within
//! the timeout instead of hanging.

use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_caf-launch");

#[test]
fn clean_demo_fleet_completes() {
    let out = Command::new(BIN)
        .args([
            "demo", "--nodes", "2", "--cores", "2", "--images", "4", "--iters", "5",
        ])
        .output()
        .expect("run caf-launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "clean fleet should exit 0\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("fleet complete (4 images across 2 processes)"),
        "expected completion banner, got:\n{stdout}"
    );
    // Collective results are deterministic, so every image digests the same
    // value stream: 4 identical digest lines.
    let digests: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("digest"))
        .map(|l| l.split("digest").nth(1).unwrap().trim())
        .collect();
    assert_eq!(digests.len(), 4, "one digest per image:\n{stdout}");
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "co_sum digests must agree across images:\n{stdout}"
    );
}

#[test]
fn killed_node_is_reported_by_image_rank_within_timeout() {
    let t0 = Instant::now();
    let out = Command::new(BIN)
        .args([
            "demo",
            "--nodes",
            "2",
            "--cores",
            "4",
            "--images",
            "8",
            "--iters",
            "200000",
            "--kill-node",
            "1",
            "--kill-after-ms",
            "150",
            "--peer-timeout-ms",
            "500",
            "--run-timeout-ms",
            "30000",
        ])
        .output()
        .expect("run caf-launch");
    let elapsed = t0.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a fleet with a killed member must fail\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // The launcher names the dead node and its 1-based images (packed
    // placement: node 1 hosts images 5..8).
    assert!(
        stderr.contains("node 1") && stderr.contains("images 5,6,7,8"),
        "launcher must report the dead node's image ranks, got:\n{stderr}"
    );
    // Bounded detection: no hang. The kill fires at 150 ms and peer
    // timeout is 500 ms; 20 s leaves slack for slow CI but catches hangs.
    assert!(
        elapsed < Duration::from_secs(20),
        "death must be detected within the timeout, took {elapsed:?}"
    );
}

#[test]
fn respawned_fleet_completes_and_leaves_no_shm_litter() {
    // Kill-and-recover drill: node 1 dies mid-run, the launcher respawns
    // it at recovery generation 1, and the fleet still completes. The dead
    // incarnation's shared segment (its owner never ran its unlink) must
    // be swept before the respawn, and nothing with this launch's fleet
    // tag may survive in the segment directory afterwards.
    let t0 = Instant::now();
    let child = Command::new(BIN)
        .args([
            "demo",
            "--nodes",
            "2",
            "--cores",
            "2",
            "--images",
            "4",
            "--iters",
            "3000",
            "--kill-node",
            "1",
            "--kill-after-ms",
            "150",
            "--peer-timeout-ms",
            "500",
            "--run-timeout-ms",
            "60000",
            "--respawn",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn caf-launch");
    let launcher_pid = child.id();
    let out = child.wait_with_output().expect("run caf-launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "respawn drill should recover and exit 0\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("respawned and rejoined at recovery generation 1"),
        "the recovery must actually have happened, got:\n{stdout}"
    );
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(50),
        "respawn drill must not hang, took {elapsed:?}"
    );
    // No shared-segment litter: every file of this launch's fleet tag
    // ("l<launcher pid>-<seq>") is gone — clean children unlinked their
    // own, the launcher swept the killed incarnation's.
    let prefix = format!("caf-shm-l{launcher_pid}-");
    let leftovers: Vec<String> = std::fs::read_dir(caf_fabric::socket::shm::segment_dir())
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.file_name().to_str().map(str::to_owned))
                .filter(|name| name.starts_with(&prefix))
                .collect()
        })
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "launcher must sweep its fleet's shared segments, found: {leftovers:?}"
    );
}

#[test]
fn survivors_name_the_dead_peer_in_their_own_report() {
    // Same drill, but check the *survivors'* poison path too: images on the
    // living node fail loudly naming the dead peer process rather than
    // exiting silently.
    let out = Command::new(BIN)
        .args([
            "demo",
            "--nodes",
            "2",
            "--cores",
            "2",
            "--images",
            "4",
            "--iters",
            "200000",
            "--kill-node",
            "0",
            "--kill-after-ms",
            "150",
            "--peer-timeout-ms",
            "500",
            "--run-timeout-ms",
            "30000",
        ])
        .output()
        .expect("run caf-launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "fleet must fail\nstdout:\n{stdout}");
    assert!(
        stderr.contains("node 0") && stderr.contains("images 1,2"),
        "launcher must name node 0's images, got:\n{stderr}"
    );
    // Child stderr is inherited, so the survivor's poison report (naming
    // the dead peer process) should be visible in the combined output.
    assert!(
        stderr.contains("peer process 0") || stderr.contains("died before reporting"),
        "survivors should name the dead peer, got:\n{stderr}"
    );
}

#[test]
fn tcp_demo_fleet_completes_without_a_unix_socket() {
    // `--tcp` reaches the members only through the argv they share with
    // the launcher. The temp directory — where every Unix-domain socket
    // would be bound — does not exist, so the fleet can only complete if
    // the coordinator *and* each member's data plane listen on TCP.
    let missing = std::env::temp_dir().join(format!("caf-no-such-dir-{}", std::process::id()));
    let out = Command::new(BIN)
        .args([
            "demo", "--nodes", "2", "--cores", "2", "--images", "4", "--iters", "5", "--tcp",
        ])
        .env_remove("CAF_SOCKET_TCP")
        .env("CAF_SHM_DIR", std::env::temp_dir())
        .env("TMPDIR", &missing)
        .output()
        .expect("run caf-launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "a TCP fleet should exit 0\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("fleet complete (4 images across 2 processes)"),
        "expected completion banner, got:\n{stdout}"
    );
}
