//! Run metadata: the host block and the process's peak memory.

use crate::json::Json;

/// Worker threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host block carried by every result.
pub fn host_block() -> Json {
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("commit", Json::from(env!("PERFBENCH_COMMIT"))),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("rustc", Json::from(env!("PERFBENCH_RUSTC"))),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`) since it
/// started or since the last [`reset_peak_rss`], if the platform reports
/// it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Resets the peak resident set size to the current one (Linux
/// `clear_refs`); returns whether the platform supports it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
