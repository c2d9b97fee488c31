//! End-to-end tests of the instrumented stack: a traced simulator run
//! through the full runtime (teams, collectives, fabric), checked against
//! the paper's closed forms — notification counts per barrier episode,
//! critical-path shape of TDLB, exporter well-formedness — plus the
//! trace-enriched deadlock report.

use caf_collectives::SizePolicy;
use caf_fabric::{Fabric, FlagId, SimConfig, SimFabric};
use caf_runtime::{run_on_fabric, BarrierAlgo, CollectiveConfig};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use caf_trace::{chrome_trace_json, extract, json, phase_window, EventKind, Tracer};

/// 16 images dense on the 4-node x 4-core mini machine.
const N: usize = 16;

fn traced_run(algo: BarrierAlgo, episodes: usize) -> Tracer {
    let map = ImageMap::new(presets::mini(4, 4), N, &Placement::Block { per_node: 4 });
    let tracer = Tracer::for_images(N);
    let fabric = SimFabric::new(
        map,
        SimConfig {
            tracer: tracer.clone(),
            ..SimConfig::default()
        },
    );
    let cfg = CollectiveConfig {
        barrier: algo,
        ..CollectiveConfig::default()
    };
    run_on_fabric(fabric, cfg, move |img| {
        for _ in 0..episodes {
            img.sync_all();
        }
    });
    tracer
}

fn flag_adds(t: &Tracer) -> usize {
    t.events()
        .iter()
        .filter(|e| e.kind == EventKind::FlagAdd)
        .count()
}

/// §IV-A closed form: a dissemination barrier over n images performs
/// exactly n·⌈log₂ n⌉ notifications per episode. Measured as the
/// difference of two deterministic runs, so formation traffic cancels.
#[test]
fn dissemination_flag_events_match_closed_form() {
    let d = 3;
    let a = flag_adds(&traced_run(BarrierAlgo::Dissemination, 2));
    let b = flag_adds(&traced_run(BarrierAlgo::Dissemination, 2 + d));
    // n * ceil(log2 n) = 16 * 4 = 64 per episode.
    assert_eq!((b - a) / d, 64, "a={a}, b={b}");
}

/// TDLB's leader dissemination runs ⌈log₂ L⌉ rounds (L = nodes), so the
/// longest notification chain of that phase crosses exactly that many
/// inter-node edges: 2 on 4 nodes.
#[test]
fn tdlb_critical_path_crosses_log2_nodes_inter_edges() {
    let tracer = traced_run(BarrierAlgo::Tdlb, 4);
    let events = tracer.events();
    let last_epoch = events
        .iter()
        .filter(|e| e.kind == EventKind::TdlbDissem)
        .map(|e| e.c)
        .max()
        .expect("TDLB episodes traced");
    // `phase_window` (latest entry .. latest exit) isolates the
    // dissemination rounds from the straggler leader's gather tail.
    let window = phase_window(&events, EventKind::TdlbDissem, last_epoch)
        .expect("dissemination phase spans");
    let cp = extract(&events, window).expect("critical path");
    assert_eq!(
        cp.inter_hops(),
        2,
        "expected ceil(log2(4)) inter-node hops\n{}",
        cp.render()
    );
    let report = cp.render();
    assert!(report.contains("2 inter-node"), "{report}");
}

/// The Chrome exporter must emit well-formed JSON whose per-track
/// timestamps never go backwards (Perfetto renders such files directly).
#[test]
fn chrome_export_is_valid_json_with_monotone_tracks() {
    let tracer = traced_run(BarrierAlgo::Tdlb, 2);
    let events = tracer.events();
    assert!(!events.is_empty());

    let map = ImageMap::new(presets::mini(4, 4), N, &Placement::Block { per_node: 4 });
    let text = chrome_trace_json(&events, |i| map.node_of(ProcId(i)).index());
    let doc = json::parse(&text).expect("well-formed JSON");
    let arr = doc.as_arr().expect("top-level array");
    assert!(arr.len() > events.len() / 2, "export dropped most events");

    // Per-(pid, tid) track, `ts` must be nondecreasing in file order.
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    let mut data_events = 0;
    for item in arr {
        let ph = item
            .get("ph")
            .and_then(json::Value::as_str)
            .expect("ph field");
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        data_events += 1;
        let pid = item.get("pid").and_then(json::Value::as_f64).unwrap() as u64;
        let tid = item.get("tid").and_then(json::Value::as_f64).unwrap() as u64;
        let ts = item.get("ts").and_then(json::Value::as_f64).unwrap();
        let prev = last_ts.insert((pid, tid), ts).unwrap_or(0.0);
        assert!(
            ts >= prev,
            "track ({pid},{tid}) went backwards: {prev} -> {ts}"
        );
    }
    assert!(data_events > 0);

    // Images spread over 4 nodes: the export must name 4 distinct pids.
    let pids: std::collections::BTreeSet<u64> = last_ts.keys().map(|(p, _)| *p).collect();
    assert_eq!(pids.len(), 4, "one Chrome process per node");
}

/// Every image's flag waits, `(flag, at_least)` in program order, of one
/// program that runs each collective's every wait site on `mini(2, 4)`:
/// FNV-1a over `(image, flag, at_least)` and the number of waits.
fn wait_digest(cfg: CollectiveConfig) -> (u64, usize) {
    const IMAGES: usize = 8;
    let map = ImageMap::new(
        presets::mini(2, 4),
        IMAGES,
        &Placement::Block { per_node: 4 },
    );
    let tracer = Tracer::with_capacity(IMAGES, 1 << 15);
    let sim = SimConfig {
        tracer: tracer.clone(),
        ..SimConfig::default()
    };
    let tiny = SizePolicy {
        chunk_bytes: 64,
        crossover_bytes: 256,
    };
    run_on_fabric(SimFabric::new(map, sim), cfg, move |img| {
        let me = img.this_image();
        let partner = if me % 2 == 1 { me + 1 } else { me - 1 };
        img.sync_all();
        img.sync_all();
        // Two broadcasts in flight (both parities), finished together.
        let (mut a, mut b) = ([me as u64; 4], [me as u32; 3]);
        img.co_broadcast_begin(&mut a, 2);
        img.co_broadcast_begin(&mut b, 7);
        img.co_broadcast_finish();
        let mut x = [me as f64];
        img.co_sum(&mut x);
        // The whole team again, with a crossover the 800 B payloads pass:
        // Auto takes the pipelined paths.
        let mut all = img.form_team(1);
        all.comm_mut().set_size_policy(tiny);
        let mut big = vec![me as u64; 100];
        all.comm_mut().co_sum(&mut big);
        all.comm_mut().co_broadcast(&mut big, 5);
        // A team of 3 (fold-in/fold-out on flat exchanges) beside one of 5.
        let mut part = img.form_team(if me <= 3 { 1 } else { 2 });
        part.comm_mut().set_size_policy(tiny);
        img.change_team(part, |img| {
            let mut y = [1.0f64];
            img.co_sum(&mut y);
            let mut big = vec![1u64; 100];
            img.co_sum(&mut big);
            img.sync_all();
        });
        let _ = img.co_gather(&[me as u64; 2], 3);
        let src: Vec<u64> = (0..16).collect();
        let mut out = [0u64; 2];
        img.co_scatter((me == 3).then_some(&src[..]), &mut out, 3);
        let _ = img.co_alltoall(&[me as u64; 8], 1);
        img.sync_images(&[partner]);
        let mut ev = img.events(1);
        ev.post(partner, 0);
        ev.wait(0, 1);
        ev.post(partner, 0);
        img.sync_images(&[partner]);
        assert_eq!(ev.query(0), 1);
        ev.wait(0, 1);
        img.sync_all();
    });
    let mut retained = 0;
    let (mut digest, mut waits) = (0xcbf2_9ce4_8422_2325u64, 0);
    for i in 0..IMAGES {
        let events = tracer.events_of(i);
        retained += events.len() as u64;
        for e in events.iter().filter(|e| e.kind == EventKind::FlagWait) {
            for word in [i as u64, e.a, e.b] {
                for byte in word.to_le_bytes() {
                    digest = (digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
            waits += 1;
        }
    }
    let system = tracer.events_of(IMAGES).len() as u64;
    assert_eq!(tracer.total_recorded(), retained + system, "a ring wrapped");
    (digest, waits)
}

/// The counted waits: every wait's flag and threshold, on every image, in
/// order, under the paper's two runtimes and the size-aware default. A
/// threshold one off anywhere changes the digest, and so does a change to
/// a team's flag layout, which shifts every later flag id.
#[test]
fn every_wait_waits_for_the_same_count() {
    let got = [
        CollectiveConfig::two_level(),
        CollectiveConfig::one_level(),
        CollectiveConfig::auto(),
    ]
    .map(wait_digest);
    let want = [
        (8_096_779_154_341_026_513, 439),
        (5_851_943_233_924_234_650, 573),
        (13_138_377_149_759_112_174, 798),
    ];
    assert_eq!(got, want, "two-level, one-level, auto: (digest, waits)");
}

/// With a tracer installed, the simulator's global-deadlock panic reports
/// each blocked image's recent operations and the flag it waited on.
#[test]
fn deadlock_report_includes_recent_trace_events() {
    let map = ImageMap::new(presets::mini(1, 2), 2, &Placement::Packed);
    let tracer = Tracer::for_images(2);
    let fabric = SimFabric::new(
        map,
        SimConfig {
            tracer: tracer.clone(),
            ..SimConfig::default()
        },
    );
    let mut handles = Vec::new();
    for i in 0..2 {
        let f = fabric.clone();
        handles.push(std::thread::spawn(move || {
            let me = ProcId(i);
            if i == 0 {
                f.flag_add(me, ProcId(1), FlagId(2), 1);
            }
            // Nobody ever posts FlagId(3): global deadlock.
            f.flag_wait_ge(me, FlagId(3), 1);
            f.image_done(me);
        }));
    }
    let mut messages = Vec::new();
    for h in handles {
        let err = h.join().expect_err("deadlock must panic");
        messages.push(caf_fabric::panic_message(err.as_ref()));
    }
    for msg in &messages {
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(
            msg.contains("recent:") && msg.contains("flag_add"),
            "report should list recent trace events:\n{msg}"
        );
        assert!(
            msg.contains("waits flag3 >= 1"),
            "report should show the blocking wait:\n{msg}"
        );
    }
}
