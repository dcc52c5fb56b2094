//! What the host gives a run: cores, cache sizes, steal time, memory.
//!
//! Each workload is meant to sit firmly in one cache regime; these
//! readings let a run prove it does, and record how much CPU time the
//! hypervisor took away while it measured.

use std::fs;

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the unified cache at `level` as seen by cpu0, from
/// sysfs (`None` when the host does not expose it).
pub fn cache_bytes(level: u32) -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for entry in fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| fs::read_to_string(dir.join(f)).unwrap_or_default();
        if read("level").trim() != level.to_string() || read("type").trim() == "Instruction" {
            continue;
        }
        let size = read("size");
        let size = size.trim();
        let (digits, unit) = size.split_at(size.trim_end_matches(char::is_alphabetic).len());
        let scale = match unit {
            "" => 1,
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => return None,
        };
        return digits.parse::<u64>().ok().map(|v| v * scale);
    }
    None
}

/// Aggregate `(steal, total)` jiffies of the `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already included in user, so the total stops at steal.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
