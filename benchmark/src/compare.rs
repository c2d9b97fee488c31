//! `caf-benchmark compare A.json B.json`: two results files, one row per
//! workload × end-to-end metric, each side's median and quartiles over its
//! runs, the metric's bound, and a verdict:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — either side's run-to-run spread (interquartile range
//!   over its median) is wider than the bound, so "no worse" cannot be
//!   told from noise (`setup_s` is exempt, as in the driver's own check);
//! * `ok` — otherwise.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{summarize, Summary};
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B's median is worse (negative = better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    if worsening(metric, a.median, b.median) > metric.bound {
        Verdict::Regressed
    } else if metric.name != "setup_s" && a.spread().max(b.spread()) > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// `workload → metric → one value per run`, out of a results file.
fn run_values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .flat_map(|w| {
            w.get("end_to_end")
                .and_then(Json::as_arr)
                .into_iter()
                .flatten()
        })
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("caf-benchmark compare: {e}");
            }
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<12} {:>36} {:>36} {:>6} {:>8}  verdict",
        "workload",
        "metric",
        "A median [q1, q3] (runs)",
        "B median [q1, q3] (runs)",
        "bound",
        "worse"
    );
    let mut bad = 0;
    for workload in crate::workloads::NAMES {
        for metric in &END_TO_END {
            let (va, vb) = (
                run_values(&a, workload, metric.name),
                run_values(&b, workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<14} {:<12} missing on one side", metric.name);
                bad += 1;
                continue;
            }
            let (sa, sb) = (summarize(&va), summarize(&vb));
            let v = verdict(metric, &sa, &sb);
            bad += usize::from(v != Verdict::Ok);
            let cell =
                |s: &Summary| format!("{:.4e} [{:.4e}, {:.4e}] ({})", s.median, s.q1, s.q3, s.n);
            println!(
                "{workload:<14} {:<12} {:>36} {:>36} {:>5.0}% {:>+7.1}%  {}",
                metric.name,
                cell(&sa),
                cell(&sb),
                metric.bound * 100.0,
                worsening(metric, sa.median, sb.median) * 100.0,
                v.label()
            );
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throughput() -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == "throughput")
            .expect("declared")
    }

    fn setup() -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("declared")
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(throughput(), 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening(throughput(), 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((worsening(setup(), 1.0, 1.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let steady = |m: f64| summarize(&[m * 0.99, m, m * 1.01, m, m]);
        let noisy = |m: f64| summarize(&[m * 0.5, m, m * 1.5, m * 0.6, m * 1.4]);
        let t = throughput();
        assert_eq!(verdict(t, &steady(100.0), &steady(98.0)), Verdict::Ok);
        assert_eq!(verdict(t, &steady(100.0), &steady(130.0)), Verdict::Ok);
        assert_eq!(
            verdict(t, &steady(100.0), &steady(70.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(t, &steady(100.0), &noisy(100.0)),
            Verdict::Unresolved
        );
        // Set-up time is checked against its bound but not for spread.
        assert_eq!(verdict(setup(), &noisy(1.0), &noisy(1.0)), Verdict::Ok);
        assert_eq!(
            verdict(setup(), &steady(1.0), &steady(1.4)),
            Verdict::Regressed
        );
    }

    #[test]
    fn reads_run_values_out_of_a_results_file() {
        let run = |v: f64| {
            Json::parse(&format!(
                r#"{{"result": {{"metrics": {{"throughput": {{"value": {v}, "unit": "1/s"}}}}}}}}"#
            ))
            .unwrap()
        };
        let file = Json::obj(vec![(
            "workloads",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::str("bulk-wire")),
                ("end_to_end", Json::Arr(vec![run(1.0), run(2.0), run(3.0)])),
            ])]),
        )]);
        assert_eq!(
            run_values(&file, "bulk-wire", "throughput"),
            [1.0, 2.0, 3.0]
        );
        assert!(run_values(&file, "sim-scale", "throughput").is_empty());
    }
}
