//! Every trace kind survives both codecs it travels through: the ring
//! slot's words (`Event::encode` / `decode`) and a node's telemetry
//! shipment (`NodeTelemetry::encode` / `decode`), which rejects the whole
//! shipment, flight recorder included, on one event it cannot read. The
//! kinds come from the `kinds!` table itself (`EventKind::ALL`), so a row
//! added there is covered without touching this file.

use caf_fabric::{NodeTelemetry, ObsSnapshot, StatsSnapshot, TelemetryPhase};
use caf_trace::{Event, EventKind, Level};

/// One event of `kind` whose every field differs from its neighbours'.
fn sample(i: u64, kind: EventKind) -> Event {
    let mut ev = Event::span(kind, 1000 + i, 10 + i)
        .a(i + 1)
        .b(i + 2)
        .c(i + 3)
        .d(i + 4)
        .intra(i.is_multiple_of(2))
        .level([Level::Whole, Level::Intra, Level::Inter][i as usize % 3]);
    ev.img = i as u32;
    ev
}

#[test]
fn every_kind_round_trips_through_both_codecs() {
    let events: Vec<Event> = (EventKind::ALL.iter().enumerate())
        .map(|(i, &kind)| sample(i as u64, kind))
        .collect();
    for ev in &events {
        assert_eq!(Event::decode(&ev.encode()), Some(*ev), "{:?}", ev.kind);
    }
    let shipment = NodeTelemetry {
        node: 1,
        phase: TelemetryPhase::FlightRecorder,
        sent_at_ns: 7,
        cause: "every kind".into(),
        images: vec![2, 3],
        stats: StatsSnapshot::default(),
        obs: ObsSnapshot::default(),
        events,
    };
    let back = NodeTelemetry::decode(&shipment.encode()).expect("shipment decodes");
    assert_eq!(back, shipment);
}

#[test]
fn the_table_is_in_code_order_with_one_name_per_kind() {
    let codes: Vec<u32> = EventKind::ALL.iter().map(|&k| k as u32).collect();
    assert!(codes.windows(2).all(|w| w[0] < w[1]), "{codes:?}");
    // The derived `Ord`, which orders the metrics table, follows the codes.
    assert!(EventKind::ALL.windows(2).all(|w| w[0] < w[1]));
    let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), EventKind::ALL.len(), "two kinds share a name");
}
