//! `cargo xtask ab <rev> [--pairs N] [--seconds S] [--workload W]...`
//!
//! Runs the end-to-end benchmark (the binary `benchmark/run.sh`, which
//! `BENCHMARK.json` declares, builds and runs) on `<rev>`'s committed files
//! and on the working tree, in alternating pairs, and says per end-to-end
//! metric whether the working tree is better, worse or not resolvably
//! different.
//!
//! * Both sides are built alike, from an export at one path: `<rev>`, and
//!   the working tree — tracked and untracked files alike, staged through
//!   a scratch index and committed with no ref, dated as `HEAD` — are
//!   each exported with `git archive` into `target/ab/src` in turn and
//!   built there offline, as `run.sh` builds, with the same
//!   `--remap-path-prefix`. Paths feed a build through panic locations and
//!   the crates' metadata hashes, so one path makes one binary: an A/A
//!   comparison builds two binaries of one text size, which the command
//!   prints. Each side builds into its own target directory,
//!   `target/ab/<base|work>-<sha>.target`, kept for the next comparison
//!   against the same files; the export is removed once both are built.
//!   Nothing is registered in `.git` (no ref, no worktree), so an
//!   interrupted run leaves nothing stale behind. One comparison at a
//!   time: two would share `target/ab/src`.
//! * Each pair runs the built benchmark, `--workload W --seed s --seconds
//!   S --trace 0`, once on each side (in `target/ab/<base|work>-<sha>.run`,
//!   removed afterwards), with the same seed `s` on both sides; which
//!   side runs first swaps from pair to pair.
//! * Per workload and metric it prints both medians, the median of the
//!   per-pair ratios (working tree over `<rev>`), the pairs the working
//!   tree won in the metric's `better` direction, `<rev>`'s interquartile
//!   range and a verdict ([`summarize`]). Runs that failed or reported
//!   `correct: false` are listed, and any such run of the working tree
//!   makes the command fail.
//!
//! `--pairs` defaults to 10, `--seconds` to `BENCHMARK.json`'s
//! `run_seconds`, and the workloads to all of them.

use caf_trace::json;
use std::ffi::OsStr;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    higher_is_better: bool,
    /// The largest tolerated loss, as a fraction of the base median.
    bound: f64,
}

/// What `BENCHMARK.json` says the comparison needs.
struct Spec {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
    run_seconds: f64,
}

fn read_spec(root: &Path) -> Result<Spec, String> {
    let path = root.join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| {
        (spec.get(key).and_then(json::Value::as_arr))
            .ok_or_else(|| format!("BENCHMARK.json: no {key:?} array"))
    };
    let text_of = |v: &json::Value, key: &str| {
        (v.get(key).and_then(json::Value::as_str))
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: an entry without {key:?}"))
    };
    let workloads = (list("workloads")?.iter())
        .map(|w| text_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = (list("end_to_end")?.iter())
        .map(|m| {
            Ok(Metric {
                name: text_of(m, "name")?,
                higher_is_better: text_of(m, "better")? == "higher",
                bound: m.get("bound").and_then(json::Value::as_f64).unwrap_or(0.0),
            })
        })
        .collect::<Result<_, String>>()?;
    let run_seconds = (spec.get("run_seconds").and_then(json::Value::as_f64))
        .ok_or("BENCHMARK.json: no \"run_seconds\"")?;
    Ok(Spec {
        workloads,
        metrics,
        run_seconds,
    })
}

/// What the pairs say about one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// At least [`MIN_PAIRS`] pairs, better on at least nine in ten of
    /// them, and the medians differ in the better direction by more than
    /// the base runs' interquartile range.
    Better,
    /// The working tree's median is worse than the base median by more
    /// than the metric's bound.
    Worse,
    /// Neither.
    Unresolved,
}

/// The fewest pairs that can resolve a gain: four wins of four happen by
/// chance one time in sixteen, and an A/A comparison of one commit against
/// itself read so on this benchmark.
pub const MIN_PAIRS: usize = 10;

/// One metric over the pairs of one workload.
#[derive(Debug, PartialEq)]
pub struct Summary {
    pub pairs: usize,
    pub base_median: f64,
    pub new_median: f64,
    /// The median of the per-pair ratios new / base.
    pub ratio_median: f64,
    /// Pairs in which the working tree is strictly better.
    pub won: usize,
    /// The base runs' interquartile range.
    pub base_iqr: f64,
    pub verdict: Verdict,
}

/// The `q`-quantile of sorted `v`, interpolated linearly between the two
/// nearest ranks.
fn quantile(v: &[f64], q: f64) -> f64 {
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn sorted(v: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = v.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Summarize `pairs` of `(base, new)` values of one metric, where
/// `higher_is_better` names its direction and `bound` its tolerated loss
/// as a fraction of the base median. `None` without a pair.
pub fn summarize(pairs: &[(f64, f64)], higher_is_better: bool, bound: f64) -> Option<Summary> {
    if pairs.is_empty() {
        return None;
    }
    let base = sorted(pairs.iter().map(|p| p.0));
    let new = sorted(pairs.iter().map(|p| p.1));
    let ratios = sorted(pairs.iter().map(|&(b, n)| n / b));
    let better = |b: f64, n: f64| if higher_is_better { n > b } else { n < b };
    let won = pairs.iter().filter(|&&(b, n)| better(b, n)).count();
    let (base_median, new_median) = (quantile(&base, 0.5), quantile(&new, 0.5));
    let base_iqr = quantile(&base, 0.75) - quantile(&base, 0.25);
    // The gain, positive when the working tree is better.
    let gain = if higher_is_better {
        new_median - base_median
    } else {
        base_median - new_median
    };
    let resolves = pairs.len() >= MIN_PAIRS && 10 * won >= 9 * pairs.len();
    let verdict = if resolves && gain > base_iqr {
        Verdict::Better
    } else if -gain > bound * base_median.abs() {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    Some(Summary {
        pairs: pairs.len(),
        base_median,
        new_median,
        ratio_median: quantile(&ratios, 0.5),
        won,
        base_iqr,
        verdict,
    })
}

/// One benchmark run: its `metrics`, or why it has none to count.
type Outcome = Result<Vec<(String, f64)>, String>;

/// Run the benchmark binary of `side` for one workload, as `run.sh` runs
/// it once built.
fn run_once(side: &Side, workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut cmd = Command::new(side.binary());
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .current_dir(&side.run_dir)
        .stderr(Stdio::null());
    let out = cmd
        .output()
        .map_err(|e| format!("launching caf-benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let result = last.and_then(|l| json::parse(l).ok());
    let Some(result) = result.filter(|r| r.get("metrics").is_some()) else {
        return Err(format!("{}, and no result line", out.status));
    };
    if !matches!(result.get("correct"), Some(json::Value::Bool(true))) {
        return Err("correct: false".into());
    }
    let failed = result.get("failed").and_then(json::Value::as_f64);
    if failed != Some(0.0) {
        return Err(format!("{} operations failed", failed.unwrap_or(f64::NAN)));
    }
    // `"metrics": {"throughput": {"value": 3.1e6, "unit": "1/s"}, ...}`
    match result.get("metrics") {
        Some(json::Value::Obj(m)) => Ok((m.iter())
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect()),
        _ => Err("metrics is not an object".into()),
    }
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    git_with(root, args, &[])
}

/// `git args` in `root` with `env` set; its trimmed output.
fn git_with(root: &Path, args: &[&str], env: &[(&str, &OsStr)]) -> Result<String, String> {
    let mut cmd = Command::new("git");
    cmd.args(args).current_dir(root);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().map_err(|e| format!("launching git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The working tree's files, tracked and untracked (what `.gitignore`
/// does not exclude), as a commit on top of `HEAD` that no ref names.
/// Staged through a scratch copy of the index, so the real one is not
/// touched; dated as `HEAD` is, so unchanged files give the same commit,
/// the same export and a reusable build.
fn commit_working_tree(root: &Path) -> Result<String, String> {
    let git_path = ["rev-parse", "--path-format=absolute", "--git-path", "index"];
    let index = PathBuf::from(git(root, &git_path)?);
    let scratch = root.join("target/ab/index");
    std::fs::create_dir_all(root.join("target/ab")).map_err(|e| format!("target/ab: {e}"))?;
    std::fs::copy(&index, &scratch).map_err(|e| format!("copying {}: {e}", index.display()))?;
    let staged = [("GIT_INDEX_FILE", scratch.as_os_str())];
    let tree = (git_with(root, &["add", "-A"], &staged))
        .and_then(|_| git_with(root, &["write-tree"], &staged));
    let _ = std::fs::remove_file(&scratch);
    let tree = tree?;
    let date = git(root, &["log", "-1", "--format=%cI", "HEAD"])?;
    let date = OsStr::new(&date);
    let who = OsStr::new("cargo xtask ab");
    let mail = OsStr::new("ab@localhost");
    let env = [
        ("GIT_AUTHOR_DATE", date),
        ("GIT_COMMITTER_DATE", date),
        ("GIT_AUTHOR_NAME", who),
        ("GIT_COMMITTER_NAME", who),
        ("GIT_AUTHOR_EMAIL", mail),
        ("GIT_COMMITTER_EMAIL", mail),
    ];
    let args = ["commit-tree", &tree, "-p", "HEAD", "-m", "working tree"];
    git_with(root, &args, &env)
}

/// One side of a comparison, built: its commit, the target directory it
/// was built into (kept, for the next comparison against the same files)
/// and the directory it runs in (removed when dropped).
struct Side {
    sha: String,
    target: PathBuf,
    run_dir: PathBuf,
}

impl Side {
    /// Export commit `sha` into `src` (emptied first) and build its
    /// benchmark offline, as `run.sh` does, into
    /// `target/ab/<label>-<sha>.target`, so that no timed run pays for the
    /// build. Both sides are built from the one path `src`, with the same
    /// remapping of it: what a path feeds into a build — panic locations,
    /// and the crates' metadata hashes, which name every symbol and decide
    /// how code is split into codegen units — is the same on either side.
    fn build(root: &Path, src: &Path, label: &str, sha: &str) -> Result<Self, String> {
        let ab = root.join("target/ab");
        if src.exists() {
            std::fs::remove_dir_all(src).map_err(|e| format!("clearing {}: {e}", src.display()))?;
        }
        std::fs::create_dir_all(src).map_err(|e| format!("creating {}: {e}", src.display()))?;
        let mut archive = (Command::new("git").args(["archive", "--format=tar", sha]))
            .current_dir(root)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("launching git archive: {e}"))?;
        let tar = (Command::new("tar").arg("-x").arg("-C").arg(src))
            .stdin(archive.stdout.take().expect("piped"))
            .status()
            .map_err(|e| format!("launching tar: {e}"))?;
        let git = archive.wait().map_err(|e| format!("git archive: {e}"))?;
        if !(git.success() && tar.success()) {
            return Err(format!("exporting {sha} failed: git {git}, tar {tar}"));
        }
        let side = Side {
            sha: sha.to_string(),
            target: ab.join(format!("{label}-{sha}.target")),
            run_dir: ab.join(format!("{label}-{sha}.run")),
        };
        // On top of any `RUSTFLAGS` of the caller's.
        let mut flags: Vec<String> = (std::env::var("RUSTFLAGS").unwrap_or_default())
            .split_whitespace()
            .map(str::to_string)
            .collect();
        flags.push(format!("--remap-path-prefix={}=/ab", src.display()));
        let status = (Command::new(env!("CARGO")))
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["--manifest-path", "benchmark/Cargo.toml"])
            .current_dir(src)
            .env("CARGO_TARGET_DIR", &side.target)
            .env("CARGO_ENCODED_RUSTFLAGS", flags.join("\x1f"))
            .env_remove("RUSTFLAGS")
            .status()
            .map_err(|e| format!("launching cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the benchmark of {sha} failed"));
        }
        std::fs::create_dir_all(&side.run_dir)
            .map_err(|e| format!("creating {}: {e}", side.run_dir.display()))?;
        Ok(side)
    }

    fn binary(&self) -> PathBuf {
        self.target.join("release/caf-benchmark")
    }

    /// The text (code) size of the binary, as `size` reports it, if that
    /// tool is there: equal on both sides of an A/A comparison.
    fn text_bytes(&self) -> Option<u64> {
        let out = Command::new("size").arg(self.binary()).output().ok()?;
        let out = String::from_utf8_lossy(&out.stdout);
        out.lines().nth(1)?.split_whitespace().next()?.parse().ok()
    }
}

impl Drop for Side {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.run_dir);
    }
}

/// The table for one workload: a row per end-to-end metric.
fn report(workload: &str, metrics: &[Metric], runs: &[(Outcome, Outcome)]) -> String {
    let mut out = String::new();
    let both = runs.iter().filter(|(b, n)| b.is_ok() && n.is_ok()).count();
    let _ = writeln!(out, "\n{workload}: {both} of {} pairs complete", runs.len());
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>13} {:>13} {:>8} {:>6} {:>11}  verdict",
        "metric", "better", "base median", "new median", "ratio", "won", "base IQR"
    );
    for m in metrics {
        let value = |o: &Outcome| {
            let metrics = o.as_ref().ok()?;
            metrics.iter().find(|(k, _)| *k == m.name).map(|p| p.1)
        };
        let pairs: Vec<(f64, f64)> = (runs.iter())
            .filter_map(|(b, n)| Some((value(b)?, value(n)?)))
            .collect();
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let Some(s) = summarize(&pairs, m.higher_is_better, m.bound) else {
            let _ = writeln!(out, "  {:<12} {better:>7}  (no complete pair)", m.name);
            continue;
        };
        let _ = writeln!(
            out,
            "  {:<12} {better:>7} {:>13.6e} {:>13.6e} {:>8.4} {:>6} {:>11.3e}  {}",
            m.name,
            s.base_median,
            s.new_median,
            s.ratio_median,
            format!("{}/{}", s.won, s.pairs),
            s.base_iqr,
            match s.verdict {
                Verdict::Better => "better".to_string(),
                Verdict::Worse => format!("WORSE beyond the {:.0} % bound", 100.0 * m.bound),
                Verdict::Unresolved => "no resolved change".to_string(),
            }
        );
    }
    for (pair, (b, n)) in runs.iter().enumerate() {
        for (side, o) in [("base", b), ("new", n)] {
            if let Err(why) = o {
                let _ = writeln!(out, "  failed: {side} run of pair {}: {why}", pair + 1);
            }
        }
    }
    out
}

pub fn run(args: &[String]) -> Result<(), String> {
    let usage = "usage: cargo xtask ab <rev> [--pairs N] [--seconds S] [--workload W]...";
    let mut rev = None;
    let (mut pairs, mut seconds, mut workloads) = (10u64, None, Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value\n{usage}"));
        match a.as_str() {
            "--pairs" => {
                let v = value()?;
                pairs = v.parse().map_err(|e| format!("bad --pairs {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = Some(v.parse().map_err(|e| format!("bad --seconds {v:?}: {e}"))?);
            }
            "--workload" => workloads.push(value()?.clone()),
            _ if rev.is_none() && !a.starts_with('-') => rev = Some(a.clone()),
            _ => return Err(usage.to_string()),
        }
    }
    let rev = rev.ok_or(usage)?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root
        .canonicalize()
        .map_err(|e| format!("the workspace root: {e}"))?;
    let spec = read_spec(&root)?;
    if let Some(w) = workloads.iter().find(|w| !spec.workloads.contains(w)) {
        return Err(format!("BENCHMARK.json declares no workload {w:?}"));
    }
    if workloads.is_empty() {
        workloads = spec.workloads.clone();
    }
    let seconds = seconds.unwrap_or(spec.run_seconds);
    let sha = git(
        &root,
        &["rev-parse", "--verify", &format!("{rev}^{{commit}}")],
    )?;
    let work_sha = commit_working_tree(&root)?;
    eprintln!("building the benchmark of {rev} ({sha}) and of the working tree ({work_sha})");
    let src = root.join("target/ab/src");
    let built = Side::build(&root, &src, "base", &sha)
        .and_then(|base| Ok((base, Side::build(&root, &src, "work", &work_sha)?)));
    let _ = std::fs::remove_dir_all(&src);
    let (base, work) = built?;
    for (side, what) in [(&base, rev.as_str()), (&work, "the working tree")] {
        let text = side.text_bytes().map_or("?".to_string(), |n| n.to_string());
        eprintln!(
            "caf-benchmark of {what} ({}): {text} bytes of text",
            side.sha
        );
    }
    let mut new_failed = 0;
    for w in &workloads {
        let mut runs = Vec::new();
        for pair in 0..pairs {
            let seed = pair + 1;
            let base_run = || run_once(&base, w, seed, seconds);
            let new_run = || run_once(&work, w, seed, seconds);
            let (b, n) = if pair % 2 == 0 {
                let b = base_run();
                (b, new_run())
            } else {
                let n = new_run();
                (base_run(), n)
            };
            let throughput = |o: &Outcome| match o {
                Ok(m) => (m.iter().find(|(k, _)| k == "throughput"))
                    .map_or("-".to_string(), |(_, v)| format!("{v:.4e}")),
                Err(why) => format!("failed ({why})"),
            };
            eprintln!(
                "{w} pair {}/{pairs} (seed {seed}): throughput base {} new {}",
                pair + 1,
                throughput(&b),
                throughput(&n)
            );
            new_failed += usize::from(n.is_err());
            runs.push((b, n));
        }
        print!("{}", report(w, &spec.metrics, &runs));
    }
    if new_failed > 0 {
        return Err(format!("{new_failed} run(s) of the working tree failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn a_gain_on_nine_pairs_in_ten_beyond_the_spread_is_better() {
        // Base runs 100..109, the change 10 % up on nine pairs.
        let mut pairs: Vec<(f64, f64)> = (0..10).map(|i| (100.0 + i as f64, 0.0)).collect();
        for (i, p) in pairs.iter_mut().enumerate() {
            p.1 = if i == 3 { p.0 - 1.0 } else { p.0 * 1.1 };
        }
        let s = summarize(&pairs, true, 0.25).expect("pairs");
        assert_eq!((s.pairs, s.won), (10, 9));
        assert_eq!(s.base_median, 104.5);
        assert!((s.base_iqr - 4.5).abs() < 1e-9, "{}", s.base_iqr);
        assert!((s.ratio_median - 1.1).abs() < 1e-9);
        assert_eq!(s.verdict, Verdict::Better);
        // The same values for a lower-is-better metric: a loss, within the
        // bound at 25 % and beyond it at 5 %.
        let s = summarize(&pairs, false, 0.25).expect("pairs");
        assert_eq!((s.won, s.verdict), (1, Verdict::Unresolved));
        assert_eq!(
            summarize(&pairs, false, 0.05).expect("pairs").verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn eight_wins_or_a_gain_inside_the_spread_resolve_nothing() {
        // Eight of ten pairs better by a lot.
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (10.0, if i < 8 { 20.0 } else { 9.0 }))
            .collect();
        let s = summarize(&pairs, true, 0.25).expect("pairs");
        assert_eq!((s.won, s.verdict), (8, Verdict::Unresolved));
        // Every pair better, by less than the base runs spread.
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let b = if i % 2 == 0 { 10.0 } else { 20.0 };
                (b, b + 1.0)
            })
            .collect();
        let s = summarize(&pairs, true, 0.25).expect("pairs");
        assert_eq!(s.won, 10);
        assert_eq!(s.base_iqr, 10.0);
        assert_eq!(s.verdict, Verdict::Unresolved);
    }

    #[test]
    fn fewer_than_ten_pairs_resolve_no_gain() {
        let pairs = [(10.0, 20.0), (11.0, 21.0), (12.0, 22.0), (13.0, 23.0)];
        let s = summarize(&pairs, true, 0.25).expect("pairs");
        assert_eq!((s.won, s.verdict), (4, Verdict::Unresolved));
        // A loss beyond the bound still shows.
        assert_eq!(
            summarize(&pairs, false, 0.25).expect("pairs").verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn no_pairs_no_summary() {
        assert_eq!(summarize(&[], true, 0.25), None);
    }

    #[test]
    fn the_report_lists_failed_runs_and_skips_them_in_the_pairs() {
        let metrics = [Metric {
            name: "throughput".into(),
            higher_is_better: true,
            bound: 0.25,
        }];
        let ok = |v: f64| Ok(vec![("throughput".to_string(), v)]);
        let runs = vec![
            (ok(1.0), ok(2.0)),
            (Err("correct: false".to_string()), ok(2.0)),
            (ok(1.0), ok(2.0)),
        ];
        let text = report("smallop-wire", &metrics, &runs);
        assert!(
            text.contains("smallop-wire: 2 of 3 pairs complete"),
            "{text}"
        );
        assert!(text.contains("2/2"), "{text}");
        assert!(
            text.contains("failed: base run of pair 2: correct: false"),
            "{text}"
        );
    }
}
