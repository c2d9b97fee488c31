//! The fleet-member lifecycle: what every child of [`launch`](crate::launch)
//! does around the program it runs. One body closure, one image map and
//! one collective configuration make a fleet program; joining, telemetry,
//! the flight recorder and the final report are the same for all of them.

use crate::ChildEnv;
use caf_fabric::socket::{SocketConfig, SocketFabric};
use caf_fabric::{panic_message, TelemetryPhase};
use caf_runtime::{run_hosted, run_hosted_rejoin, CollectiveConfig, ImageCtx};
use caf_topology::ImageMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One fleet member's whole life, for the process `env` describes:
/// [`SocketConfig::from_env`] (then `tweak`, for a tracer or what the
/// program's argv set: drill timeouts, a transport) →
/// [`SocketFabric::join`] with `map` — which must be the launcher's — →
/// `body` on every hosted image through [`run_hosted`], or
/// [`run_hosted_rejoin`] when the supervisor marked this process a
/// respawned incarnation → the per-image results to the launcher →
/// [`SocketFabric::shutdown`].
///
/// On the control connection a member sends `Telemetry(Live)` every
/// `live_every` while the body runs, then `Telemetry(Final)` and `Done` —
/// or, if the body (or a peer's death) panicked the run,
/// `Telemetry(FlightRecorder)` carrying the cause and **no** `Done`, which
/// is how the supervisor tells the two apart. Returns the process exit
/// code.
pub fn member<B>(
    env: ChildEnv,
    map: ImageMap,
    collectives: CollectiveConfig,
    live_every: Option<Duration>,
    tweak: impl FnOnce(&mut SocketConfig),
    body: B,
) -> ExitCode
where
    B: Fn(&mut ImageCtx) -> u64 + Send + Sync + 'static,
{
    let ChildEnv { node, coord, .. } = env;
    let mut cfg = SocketConfig::from_env();
    tweak(&mut cfg);
    let rejoining = cfg.rejoin_generation.is_some();
    let (fabric, control) = match SocketFabric::join(map, node, &coord, cfg) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("caf-launch member node {node}: join failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The control connection is shared between this thread (final
    // telemetry + Done) and the live-telemetry shipper.
    let control = Mutex::new(control);
    let stop = AtomicBool::new(false);
    let hosted = fabric.hosted().to_vec();
    let run = std::thread::scope(|s| {
        if let Some(period) = live_every {
            let (fabric, control, stop) = (&fabric, &control, &stop);
            s.spawn(move || {
                let mut next = Instant::now() + period;
                while !stop.load(Ordering::Acquire) {
                    if Instant::now() < next {
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                    next += period;
                    let t = fabric.node_telemetry(TelemetryPhase::Live, None);
                    let mut control = control.lock().expect("control connection lock");
                    if control.send_telemetry(t.encode()).is_err() {
                        return; // launcher gone: nobody left to tell
                    }
                }
            });
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            if rejoining {
                run_hosted_rejoin(fabric.clone(), &hosted, collectives, body)
            } else {
                run_hosted(fabric.clone(), &hosted, collectives, body)
            }
        }));
        stop.store(true, Ordering::Release);
        run
    });
    let mut control = control.into_inner().expect("control connection lock");
    let results = match run {
        Ok(results) => results,
        Err(payload) => {
            // Going down (a peer died, or our own images failed): ship the
            // flight recorder — final counters plus the per-image trace
            // window — to the launcher before exiting.
            let cause = panic_message(payload.as_ref());
            let t = fabric.node_telemetry(TelemetryPhase::FlightRecorder, Some(&cause));
            let _ = control.send_telemetry(t.encode());
            eprintln!("caf-launch member node {node}: {cause}");
            return ExitCode::FAILURE;
        }
    };
    let report: Vec<(u32, u64)> = results
        .iter()
        .map(|(p, digest)| (p.index() as u32, *digest))
        .collect();
    let t = fabric.node_telemetry(TelemetryPhase::Final, None);
    let _ = control.send_telemetry(t.encode());
    if let Err(e) = control.send_done(&report) {
        eprintln!("caf-launch member node {node}: report failed: {e}");
        return ExitCode::FAILURE;
    }
    fabric.shutdown();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_fabric::socket::rendezvous::{nap, Coordinator};
    use caf_fabric::socket::wire::{read_frame, Frame};
    use caf_fabric::socket::Transport;
    use caf_fabric::NodeTelemetry;
    use caf_topology::{presets, Placement};

    /// Run a one-process, two-image fleet in this process against an
    /// inline coordinator; returns the member's exit code (as `Debug`
    /// text: `ExitCode` has no `Eq`) and every frame it sent on the
    /// control connection, up to EOF.
    fn last_words(body: fn(&mut ImageCtx) -> u64) -> (String, Vec<Frame>) {
        let mut coord = Coordinator::bind(Transport::Uds, 1).expect("bind coordinator");
        let env = ChildEnv {
            node: 0,
            nodes: 1,
            coord: coord.addr().clone(),
        };
        let map = ImageMap::new(presets::mini(1, 2), 2, &Placement::Packed);
        let member = std::thread::spawn(move || {
            member(env, map, CollectiveConfig::two_level(), None, |_| {}, body)
        });
        let mut control = (coord.admit(Duration::from_secs(10), nap))
            .expect("rendezvous")
            .remove(0);
        let code = member.join().expect("member thread");
        let mut frames = Vec::new();
        while let Ok((frame, _)) = read_frame(&mut control) {
            frames.push(frame);
        }
        (format!("{code:?}"), frames)
    }

    fn telemetry(frame: &Frame) -> NodeTelemetry {
        match frame {
            Frame::Telemetry { node: 0, payload } => {
                NodeTelemetry::decode(payload).expect("telemetry decodes")
            }
            other => panic!("expected node 0's telemetry, got {other:?}"),
        }
    }

    #[test]
    fn a_passing_member_sends_final_telemetry_then_done_and_nothing_after() {
        let (code, frames) = last_words(|img| {
            img.sync_all();
            img.this_image() as u64 * 11
        });
        assert_eq!(code, format!("{:?}", ExitCode::SUCCESS));
        assert_eq!(frames.len(), 2, "{frames:?}");
        assert_eq!(telemetry(&frames[0]).phase, TelemetryPhase::Final);
        let done = Frame::Done {
            node: 0,
            results: vec![(0, 11), (1, 22)],
        };
        assert_eq!(frames[1], done);
    }

    #[test]
    fn a_panicking_member_sends_its_flight_recorder_and_no_done() {
        let (code, frames) = last_words(|img| {
            if img.this_image() == 2 {
                panic!("MARKER-41c9: the body's own failure");
            }
            img.sync_all();
            0
        });
        assert_eq!(code, format!("{:?}", ExitCode::FAILURE));
        assert_eq!(frames.len(), 1, "{frames:?}");
        let t = telemetry(&frames[0]);
        assert_eq!(t.phase, TelemetryPhase::FlightRecorder);
        assert!(
            t.cause.contains("image 2 panicked: MARKER-41c9"),
            "cause: {}",
            t.cause
        );
    }
}
