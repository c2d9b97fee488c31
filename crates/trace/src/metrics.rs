//! Latency aggregation: group span events by (team tag, operation,
//! hierarchy level) and report count plus p50/p95/p99/max — the numbers
//! the paper argues with (§IV-A), computed from an actual trace instead
//! of closed forms.

use crate::event::{Event, EventKind, Level};

/// Aggregation key: which team, which operation, which level.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Team tag (`first_member << 32 | size`), 0 for untagged fabric ops.
    pub team: u64,
    /// Operation kind.
    pub kind: EventKind,
    /// Hierarchy level of the span.
    pub level: Level,
}

/// Aggregated latencies for one key.
#[derive(Clone, Debug)]
pub struct MetricsRow {
    /// Grouping key.
    pub key: MetricKey,
    /// Spans aggregated.
    pub count: usize,
    /// Median duration (ns).
    pub p50_ns: u64,
    /// 95th percentile duration (ns).
    pub p95_ns: u64,
    /// 99th percentile duration (ns).
    pub p99_ns: u64,
    /// Maximum duration (ns).
    pub max_ns: u64,
    /// Mean duration (ns).
    pub mean_ns: f64,
}

impl MetricsRow {
    /// Human-readable team tag: `r<first>x<size>` or `-` for untagged.
    pub fn team_label(&self) -> String {
        if self.key.team == 0 {
            "-".into()
        } else {
            format!("r{}x{}", self.key.team >> 32, self.key.team & 0xFFFF_FFFF)
        }
    }
}

/// Exact nearest-rank percentile over a sorted sample:
/// the ⌈p/100·n⌉-th smallest value.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregate span durations from `events`, sorted by key. Instants carry
/// no duration and are skipped; a span aggregates under its kind's team
/// operand (`Event::team`), so `BarrierRound` — whose `b` is the partner
/// image — aggregates untagged.
pub fn aggregate(events: &[Event]) -> Vec<MetricsRow> {
    let mut groups: std::collections::BTreeMap<MetricKey, Vec<u64>> =
        std::collections::BTreeMap::new();
    for ev in events {
        if ev.dur_ns == 0 {
            continue;
        }
        let key = MetricKey {
            team: ev.team(),
            kind: ev.kind,
            level: ev.hierarchy_level(),
        };
        groups.entry(key).or_default().push(ev.dur_ns);
    }
    groups
        .into_iter()
        .map(|(key, mut durs)| {
            durs.sort_unstable();
            let count = durs.len();
            let sum: u64 = durs.iter().sum();
            MetricsRow {
                key,
                count,
                p50_ns: percentile(&durs, 50.0),
                p95_ns: percentile(&durs, 95.0),
                p99_ns: percentile(&durs, 99.0),
                max_ns: *durs.last().expect("non-empty group"),
                mean_ns: sum as f64 / count as f64,
            }
        })
        .collect()
}

/// Table-shaped rendering of [`aggregate`]: `(headers, rows)` of strings,
/// ready for any text-table sink (e.g. `caf_microbench::report::Table`).
pub fn summary_rows(events: &[Event]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "team", "op", "level", "count", "p50(us)", "p95(us)", "p99(us)", "max(us)",
    ];
    let rows = aggregate(events)
        .into_iter()
        .map(|r| {
            vec![
                r.team_label(),
                r.key.kind.name().to_string(),
                r.key.level.label().to_string(),
                r.count.to_string(),
                format!("{:.2}", r.p50_ns as f64 / 1000.0),
                format!("{:.2}", r.p95_ns as f64 / 1000.0),
                format!("{:.2}", r.p99_ns as f64 / 1000.0),
                format!("{:.2}", r.max_ns as f64 / 1000.0),
            ]
        })
        .collect();
    (headers, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: EventKind, dur: u64, team: u64, level: Level) -> Event {
        Event::span(kind, 0, dur).b(team).level(level)
    }

    #[test]
    fn groups_by_team_kind_level() {
        let mut evs = Vec::new();
        for d in [10, 20, 30] {
            evs.push(span(EventKind::Barrier, d, 7, Level::Whole));
        }
        evs.push(span(EventKind::TdlbDissem, 100, 7, Level::Inter));
        evs.push(span(EventKind::Barrier, 5, 9, Level::Whole));
        // Instants are ignored.
        evs.push(Event::instant(EventKind::FlagAdd, 0));
        let rows = aggregate(&evs);
        assert_eq!(rows.len(), 3);
        let barrier7 = rows
            .iter()
            .find(|r| r.key.team == 7 && r.key.kind == EventKind::Barrier)
            .unwrap();
        assert_eq!(barrier7.count, 3);
        assert_eq!(barrier7.p50_ns, 20);
        assert_eq!(barrier7.max_ns, 30);
        assert!((barrier7.mean_ns - 20.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_on_larger_sample() {
        let evs: Vec<Event> = (1..=100)
            .map(|d| span(EventKind::FlagWait, d, 0, Level::Whole).b(0))
            .collect();
        let rows = aggregate(&evs);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.count, 100);
        assert_eq!(r.p50_ns, 50);
        assert_eq!(r.p95_ns, 95);
        assert_eq!(r.p99_ns, 99);
        assert_eq!(r.max_ns, 100);
    }

    #[test]
    fn empty_input_aggregates_to_nothing() {
        assert!(aggregate(&[]).is_empty());
        let (headers, rows) = summary_rows(&[]);
        assert_eq!(headers.len(), 8);
        assert!(rows.is_empty());
        // Zero-duration spans and pure instants alone also produce no rows.
        let evs = vec![
            span(EventKind::Put, 0, 0, Level::Whole),
            Event::instant(EventKind::FlagDeliver, 10),
            Event::instant(EventKind::EventPost, 20),
        ];
        assert!(aggregate(&evs).is_empty());
    }

    #[test]
    fn single_event_row_pins_every_percentile() {
        // n = 1: every rank ⌈p/100·1⌉ clamps to the single sample.
        let rows = aggregate(&[span(EventKind::Barrier, 42, 3, Level::Intra)]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.count, 1);
        assert_eq!((r.p50_ns, r.p95_ns, r.p99_ns, r.max_ns), (42, 42, 42, 42));
        assert!((r.mean_ns - 42.0).abs() < 1e-9);
    }

    #[test]
    fn two_event_rank_boundaries() {
        // n = 2: p50 rank = ⌈0.5·2⌉ = 1 → the smaller sample; p95/p99
        // ranks = ⌈1.9⌉ = ⌈1.98⌉ = 2 → the larger one.
        let evs = vec![
            span(EventKind::Put, 10, 0, Level::Inter),
            span(EventKind::Put, 90, 0, Level::Inter),
        ];
        let r = &aggregate(&evs)[0];
        assert_eq!(r.count, 2);
        assert_eq!(r.p50_ns, 10);
        assert_eq!(r.p95_ns, 90);
        assert_eq!(r.p99_ns, 90);
        assert_eq!(r.max_ns, 90);
    }

    #[test]
    fn hundred_event_exact_ranks_are_order_independent() {
        // On 1..=100 the nearest-rank percentiles are exactly the rank
        // values — and shuffling the input must not change them.
        let mut durs: Vec<u64> = (1..=100).collect();
        // Deterministic shuffle (LCG index swap) — no RNG dependency.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in (1..durs.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            durs.swap(i, j);
        }
        let evs: Vec<Event> = durs
            .iter()
            .map(|d| span(EventKind::Reduce, *d, 5, Level::Whole))
            .collect();
        let r = &aggregate(&evs)[0];
        assert_eq!(r.count, 100);
        assert_eq!(r.p50_ns, 50, "rank ⌈0.50·100⌉ = 50");
        assert_eq!(r.p95_ns, 95, "rank ⌈0.95·100⌉ = 95");
        assert_eq!(r.p99_ns, 99, "rank ⌈0.99·100⌉ = 99");
        assert_eq!(r.max_ns, 100);
        assert!((r.mean_ns - 50.5).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_spans_are_skipped_within_a_group() {
        // A group mixing real spans with dur=0 noise aggregates only the
        // real ones — the zeros must not drag percentiles down.
        let evs = vec![
            span(EventKind::Get, 0, 0, Level::Intra),
            span(EventKind::Get, 100, 0, Level::Intra),
            span(EventKind::Get, 0, 0, Level::Intra),
            span(EventKind::Get, 200, 0, Level::Intra),
        ];
        let r = &aggregate(&evs)[0];
        assert_eq!(r.count, 2);
        assert_eq!(r.p50_ns, 100);
        assert_eq!(r.max_ns, 200);
    }

    #[test]
    fn summary_rows_shape() {
        let evs = vec![span(EventKind::Barrier, 1500, (3 << 32) | 8, Level::Whole)];
        let (headers, rows) = summary_rows(&evs);
        assert_eq!(headers.len(), 8);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], "r3x8");
        assert_eq!(rows[0][1], "barrier");
        assert_eq!(rows[0][4], "1.50");
    }
}
