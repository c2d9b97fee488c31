//! Chrome trace-event JSON exporter (the `chrome://tracing` / Perfetto
//! "JSON Array Format"): spans become `"ph":"X"` complete events, instant
//! records become `"ph":"i"` instants, and flag deliveries are attached
//! to the *destination* image's track so notification arrivals read
//! naturally in the UI. One process per node, one thread per image.
//!
//! Timestamps are emitted in microseconds with nanosecond precision
//! (fractional `ts`), straight from the fabric clock.

use crate::event::{Event, EventKind, SYSTEM_IMG};

/// Serialize `events` to Chrome trace JSON. `node_of` maps an image index
/// to its node (used as the trace `pid`); pass `|_| 0` when topology is
/// unknown.
pub fn chrome_trace_json(events: &[Event], node_of: impl Fn(usize) -> usize) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 256);
    out.push_str("[\n");
    let mut first = true;

    let mut seen_tracks: Vec<(usize, usize)> = Vec::new();
    for ev in events {
        let img = display_image(ev);
        let Some(img) = img else { continue };
        let node = node_of(img);
        if !seen_tracks.contains(&(node, img)) {
            seen_tracks.push((node, img));
        }
        push_event(&mut out, &mut first, ev, node, img);
    }

    // Metadata names so Perfetto labels tracks "node N" / "image I".
    // One process_name per pid, one thread_name per (pid, tid).
    seen_tracks.sort_unstable();
    let mut named_nodes: Vec<usize> = Vec::new();
    for (node, img) in seen_tracks {
        if !named_nodes.contains(&node) {
            named_nodes.push(node);
            push_meta(
                &mut out,
                &mut first,
                "process_name",
                node,
                img,
                &format!("node {node}"),
            );
        }
        push_meta(
            &mut out,
            &mut first,
            "thread_name",
            node,
            img,
            &format!("image {img}"),
        );
    }

    out.push_str("\n]\n");
    out
}

/// Which image's track an event is drawn on: deliveries land on their
/// destination image; other system records are dropped from the export.
fn display_image(ev: &Event) -> Option<usize> {
    if ev.img == SYSTEM_IMG {
        if ev.kind == EventKind::FlagDeliver {
            Some(ev.d as usize)
        } else {
            None
        }
    } else {
        Some(ev.img as usize)
    }
}

fn push_event(out: &mut String, first: &mut bool, ev: &Event, node: usize, img: usize) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let ts = ev.t_ns as f64 / 1000.0;
    let name = ev.kind.name();
    if ev.dur_ns > 0 {
        let dur = ev.dur_ns as f64 / 1000.0;
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
             \"pid\":{node},\"tid\":{img},\"args\":{{{}}}}}",
            args_json(ev)
        ));
    } else {
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{ts:.3},\"s\":\"t\",\
             \"pid\":{node},\"tid\":{img},\"args\":{{{}}}}}",
            args_json(ev)
        ));
    }
}

fn push_meta(out: &mut String, first: &mut bool, kind: &str, node: usize, img: usize, name: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(&format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{node},\"tid\":{img},\
         \"args\":{{\"name\":\"{name}\"}}}}"
    ));
}

fn args_json(ev: &Event) -> String {
    let locality = if ev.is_self() {
        "self"
    } else if ev.is_intra() {
        "intra"
    } else {
        "inter"
    };
    format!(
        "\"a\":{},\"b\":{},\"c\":{},\"d\":{},\"locality\":\"{locality}\",\"level\":\"{}\"",
        ev.a,
        ev.b,
        ev.c,
        ev.d,
        ev.hierarchy_level().label()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;
    use crate::json::{parse, Value};

    fn sample_events() -> Vec<Event> {
        let mut put = Event::span(EventKind::Put, 1000, 500)
            .a(1)
            .b(4096)
            .intra(true);
        put.img = 0;
        let mut wait = Event::span(EventKind::FlagWait, 1200, 800).a(3).b(2);
        wait.img = 1;
        let mut deliver = Event::instant(EventKind::FlagDeliver, 1500)
            .a(0)
            .b(3)
            .c(1000)
            .d(1);
        deliver.img = SYSTEM_IMG;
        let mut barrier = Event::span(EventKind::Barrier, 900, 1200)
            .a(2)
            .b(7)
            .c(1)
            .level(Level::Whole);
        barrier.img = 1;
        vec![put, wait, deliver, barrier]
    }

    #[test]
    fn exporter_output_parses_and_keeps_events() {
        let s = chrome_trace_json(&sample_events(), |img| img / 2);
        let v = parse(&s).expect("valid JSON");
        let arr = v.as_arr().expect("top-level array");
        // 4 events + 1 process_name (both images on node 0) + 2 thread_names.
        assert_eq!(arr.len(), 7);
        let names: Vec<&str> = arr
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"put"));
        assert!(names.contains(&"flag_deliver"));
        let put = arr
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("put"))
            .unwrap();
        assert_eq!(put.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(put.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(put.get("dur").and_then(Value::as_f64), Some(0.5));
    }

    #[test]
    fn deliveries_land_on_destination_track() {
        let s = chrome_trace_json(&sample_events(), |_| 0);
        let v = parse(&s).unwrap();
        let deliver = v
            .as_arr()
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("flag_deliver"))
            .unwrap();
        assert_eq!(deliver.get("tid").and_then(Value::as_f64), Some(1.0));
    }
}
