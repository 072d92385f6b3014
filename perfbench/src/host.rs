//! Host facts and provenance recorded with every result.

use crate::Cfg;
use precision_beekeeping::telemetry::json;

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(key)
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set size now (VmRSS) in MB; 0 where `/proc` is absent.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size (VmHWM) in MB; 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`. Steal is time
/// the hypervisor ran other guests on the host's virtual CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Provenance as a JSON object; `since` is [`cpu_ticks`] at the start
/// of the run, for the share of host CPU time stolen during it.
pub fn provenance(cfg: &Cfg, since: Option<(u64, u64)>) -> String {
    let steal = match (since, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".to_string(),
    };
    format!(
        "{{\"workload\":\"{}\",\"nproc\":{},\"pool_threads\":{},\"cpu_model\":{},\
         \"commit\":\"{}\",\"seed\":{},\"run_seconds\":{},\"traced\":{},\
         \"host_steal_share\":{steal}}}",
        cfg.workload,
        nproc(),
        rayon::pool::current_num_threads(),
        json::escape(&cpu_model()),
        commit(),
        cfg.seed,
        cfg.seconds,
        cfg.traced
    )
}

#[repr(C)]
struct Timespec {
    sec: std::os::raw::c_long,
    nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time (seconds) all of this process's threads have run. Time the
/// hypervisor gave to other guests (steal) and time spent waiting for a
/// core do not count; work a call hands to other threads still does.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - t0 < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0 && process_cpu_s() >= t0 + 0.01);
    }
}
