//! What the host can tell a run about itself: peak memory, CPU time, and
//! the environment block every results file carries.

use crate::json::Json;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has consumed, all threads.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the ")" that
    // closes the command name (which may itself contain spaces).
    let ticks = read("/proc/self/stat")
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0);
    ticks as f64 / 100.0 // USER_HZ is 100 on every Linux this runs on
}

extern "C" {
    // glibc/musl, linked by std: no crate needed for two calls.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process could run on before [`pin_to_one_cpu`].
static ALLOWED: std::sync::OnceLock<[u64; 16]> = std::sync::OnceLock::new();

/// Confine this thread — and every thread spawned from it from here on —
/// to one of the CPUs it may run on (the last one; CPU 0 takes the host's
/// interrupts). Returns that CPU, or `None` if the kernel refused, in
/// which case nothing changed. Call before any thread exists.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives the call; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|w| *w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return None;
    }
    ALLOWED.get_or_init(|| mask);
    Some(word * 64 + bit)
}

/// Undo [`pin_to_one_cpu`] for the calling thread and the threads it
/// spawns from here on (a diagnostic phase that wants every CPU).
pub fn unpin() {
    if let Some(mask) = ALLOWED.get() {
        // SAFETY: as in `pin_to_one_cpu`.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cache_size(level: u32) -> String {
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Some(l) = read(&format!("{base}/level")) else {
            continue;
        };
        let unified = read(&format!("{base}/type")).is_some_and(|t| t.trim() != "Instruction");
        if l.trim().parse::<u32>() == Ok(level) && unified {
            if let Some(size) = read(&format!("{base}/size")) {
                return size.trim().to_string();
            }
        }
    }
    "unknown".into()
}

/// The commit of the checkout, if it is a git checkout (the driver's is
/// not): resolved by reading `.git` directly, no subprocess.
fn commit() -> String {
    let head = match read(".git/HEAD") {
        Some(h) => h.trim().to_string(),
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).map_or(head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

/// The environment block of a results file.
pub fn environment(seed: u64) -> Json {
    Json::obj(vec![
        ("commit", Json::str(commit())),
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("l2", Json::str(cache_size(2))),
        ("l3", Json::str(cache_size(3))),
        (
            "kernel",
            Json::str(
                read("/proc/sys/kernel/osrelease")
                    .map_or("unknown".into(), |s| s.trim().to_string()),
            ),
        ),
        (
            "transport",
            Json::str("UDS loopback, one host, no real link"),
        ),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_probes_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5, "a running test has a resident set");
        assert!(nproc() >= 1);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        let env = environment(7);
        assert_eq!(env.get("seed").and_then(Json::as_f64), Some(7.0));
        assert!(env.get("kernel").is_some());
    }
}
