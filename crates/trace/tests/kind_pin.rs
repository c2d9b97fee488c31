//! The trace vocabulary, pinned. A kind's code travels in every ring slot
//! and telemetry shipment, its name is the Chrome trace event name and the
//! metrics table's `op` column, and its team operand decides which team a
//! span aggregates under — so none of them may move. The same holds for the
//! algorithm code a collective's whole-episode span carries in `a`, read
//! here from traced runs.

use caf_fabric::{SimConfig, SimFabric};
use caf_runtime::{run_on_fabric, BarrierAlgo, BcastAlgo, CollectiveConfig, ImageCtx, ReduceAlgo};
use caf_topology::{presets, ImageMap, Placement};
use caf_trace::{aggregate, Event, EventKind, Tracer};

/// `(kind, code, name, team operand)` for every kind.
const KINDS: [(EventKind, u32, &str, Option<char>); 26] = [
    (EventKind::Put, 1, "put", None),
    (EventKind::Get, 2, "get", None),
    (EventKind::AmoFetchAdd, 3, "amo_fadd", None),
    (EventKind::AmoCas, 4, "amo_cas", None),
    (EventKind::FlagAdd, 5, "flag_add", None),
    (EventKind::FlagWait, 6, "flag_wait", None),
    (EventKind::FlagDeliver, 7, "flag_deliver", None),
    (EventKind::Quiet, 8, "quiet", None),
    (EventKind::Compute, 9, "compute", None),
    (EventKind::PutNb, 10, "put_nb", None),
    (EventKind::Barrier, 16, "barrier", Some('b')),
    (EventKind::BarrierRound, 17, "barrier_round", None),
    (EventKind::TdlbGather, 18, "tdlb_gather", Some('b')),
    (EventKind::TdlbDissem, 19, "tdlb_dissem", Some('b')),
    (EventKind::TdlbRelease, 20, "tdlb_release", Some('b')),
    (EventKind::Bcast, 21, "bcast", Some('b')),
    (EventKind::BcastStage, 22, "bcast_stage", Some('b')),
    (EventKind::Reduce, 23, "reduce", Some('b')),
    (EventKind::ReduceStage, 24, "reduce_stage", Some('b')),
    (EventKind::FormTeam, 32, "form_team", Some('a')),
    (EventKind::ChangeTeam, 33, "change_team", Some('a')),
    (EventKind::EndTeam, 34, "end_team", Some('a')),
    (EventKind::SyncImages, 35, "sync_images", None),
    (EventKind::SyncMemory, 36, "sync_memory", None),
    (EventKind::EventPost, 37, "event_post", None),
    (EventKind::EventWait, 38, "event_wait", None),
];

/// The operand a span of `kind` aggregates its team under, as
/// `metrics::aggregate` reads it.
fn team_operand(kind: EventKind) -> Option<char> {
    let ev = Event::span(kind, 0, 1).a(0xA).b(0xB).c(0xC).d(0xD);
    match aggregate(&[ev]).first().map_or(0, |row| row.key.team) {
        0 => None,
        0xA => Some('a'),
        0xB => Some('b'),
        other => panic!("{kind:?} aggregates under team {other:#x}"),
    }
}

#[test]
fn every_kind_keeps_its_code_name_and_team_operand() {
    for (kind, code, name, team) in KINDS {
        assert_eq!(kind as u32, code, "{kind:?}: code");
        assert_eq!(EventKind::from_u32(code), Some(kind), "{kind:?}: decoder");
        assert_eq!(kind.name(), name, "{kind:?}: name");
        assert_eq!(team_operand(kind), team, "{kind:?}: team operand");
    }
    for code in 0..=u8::MAX as u32 {
        if !KINDS.iter().any(|&(_, c, _, _)| c == code) {
            assert_eq!(EventKind::from_u32(code), None, "code {code} is no kind");
        }
    }
}

/// The `a` operand of every `kind` span 8 images on two nodes record
/// under `cfg` while running `body`.
fn codes_of(
    cfg: CollectiveConfig,
    kind: EventKind,
    body: impl Fn(&mut ImageCtx) + Send + Sync + 'static,
) -> Vec<u64> {
    const IMAGES: usize = 8;
    let map = ImageMap::new(
        presets::mini(2, 4),
        IMAGES,
        &Placement::Block { per_node: 4 },
    );
    let tracer = Tracer::for_images(IMAGES);
    let sim = SimConfig {
        tracer: tracer.clone(),
        ..SimConfig::default()
    };
    run_on_fabric(SimFabric::new(map, sim), cfg, body);
    let mut codes: Vec<u64> = (tracer.events().iter())
        .filter(|e| e.kind == kind)
        .map(|e| e.a)
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

#[test]
fn every_collective_algorithm_keeps_its_trace_code() {
    let barriers = [
        (BarrierAlgo::CentralCounter, 1),
        (BarrierAlgo::BinomialTree, 2),
        (BarrierAlgo::Dissemination, 3),
        (BarrierAlgo::Tdlb, 4),
        (BarrierAlgo::TdlbMultilevel, 5),
    ];
    for (barrier, code) in barriers {
        let cfg = CollectiveConfig {
            barrier,
            ..CollectiveConfig::default()
        };
        let got = codes_of(cfg, EventKind::Barrier, |img| img.sync_all());
        assert_eq!(got, [code], "{barrier:?}");
    }

    let bcasts = [
        (BcastAlgo::FlatLinear, 1),
        (BcastAlgo::FlatBinomial, 2),
        (BcastAlgo::TwoLevel, 3),
        (BcastAlgo::TwoLevelPipelined, 4),
    ];
    for (bcast, code) in bcasts {
        let cfg = CollectiveConfig {
            bcast,
            ..CollectiveConfig::default()
        };
        let got = codes_of(cfg, EventKind::Bcast, |img| {
            img.co_broadcast(&mut [img.this_image() as u64; 4], 2)
        });
        assert_eq!(got, [code], "{bcast:?}");
    }
    // The ring broadcast is no BcastAlgo: it has a code of its own.
    let got = codes_of(CollectiveConfig::default(), EventKind::Bcast, |img| {
        img.co_broadcast_ring(&mut [img.this_image() as u64; 4], 3)
    });
    assert_eq!(got, [5], "ring broadcast");

    let reduces = [
        (ReduceAlgo::FlatRecursiveDoubling, 1),
        (ReduceAlgo::FlatBinomial, 2),
        (ReduceAlgo::TwoLevel, 3),
        (ReduceAlgo::TwoLevelPipelined, 4),
        (ReduceAlgo::Rabenseifner, 5),
    ];
    for (reduce, code) in reduces {
        let cfg = CollectiveConfig {
            reduce,
            ..CollectiveConfig::default()
        };
        let got = codes_of(cfg, EventKind::Reduce, |img| {
            img.co_sum(&mut [img.this_image() as f64; 16])
        });
        assert_eq!(got, [code], "{reduce:?}");
    }
}
