//! Process and host readings from `/proc`, and the calibration loop.
//!
//! These feed the `proc` layer metrics and the per-run noise diagnostics
//! (host steal ticks and the two calibration loops).
//! On a system without `/proc` the readings are 0.

use std::time::Instant;

/// Kernel clock ticks per second of `/proc` CPU times (`USER_HZ`, fixed at
/// 100 on Linux).
const USER_HZ: f64 = 100.0;

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(key: &str) -> f64 {
    status_field(key) / 1024.0
}

fn status_field(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Resident memory of this process now, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Threads of this process now.
pub fn threads() -> f64 {
    status_field("Threads")
}

/// Field `index` of `/proc/self/stat`, counted from 1 like proc(5).
fn stat_field(index: usize) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(index - 3)?.parse().ok()
}

/// User plus system CPU time of this process (all threads), in ms.
pub fn cpu_ms() -> f64 {
    match (stat_field(14), stat_field(15)) {
        (Some(user), Some(sys)) => (user + sys) * 1e3 / USER_HZ,
        _ => 0.0,
    }
}

/// Host-wide steal ticks: time the hypervisor ran something else while this
/// machine's CPUs wanted to run.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Times a fixed amount of integer work, in ms: a drift of this figure
/// between two sets of runs is the machine, not the program.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..50_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Times a fixed random walk through an 8 MiB table, in ms: memory-bound
/// work that a neighbour's cache and memory traffic slows while it leaves
/// [`calibration_ms`] alone.
pub fn memory_calibration_ms() -> f64 {
    const LEN: usize = 1 << 21;
    // Sattolo's shuffle: one cycle through every slot, so the walk cannot
    // settle in a short loop that fits a cache.
    let mut next: Vec<u32> = (0..LEN as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..LEN).rev() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        next.swap(i, (x >> 33) as usize % i);
    }
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..LEN / 2 {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}

/// Usable CPUs.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
        assert!(threads() >= 1.0);
        assert!(cpu_ms() >= 0.0);
        assert!(cpus() >= 1);
    }
}
