//! Process-level counters: CPU time from the process CPU clock, the rest
//! from `/proc`.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) the whole process has used, in ns, read from
/// the scheduler's exact runtime (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`)
/// rather than the 10 ms ticks of `/proc/self/stat`, so that slices of
/// 100 ms are timed to the nanosecond.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_field(&status, "VmHWM:").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

extern "C" {
    /// glibc: returns the free memory of every malloc arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the memory the allocator holds free to the kernel, so that
/// memory an earlier segment freed does not count as resident in the
/// next one.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only inspects and trims the allocator's own
    // free lists; any pad value is valid.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the process's peak RSS (`VmHWM`) to its current RSS by writing
/// `5` to `/proc/self/clear_refs` (Linux 4.0 and later), so that the next
/// [`peak_rss_mb`] is the peak since now. Returns whether it worked.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Voluntary plus involuntary context switches summed over the threads
/// alive now (`/proc/self/task/*/status`). Take deltas across a window
/// whose threads all outlive it.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// Host-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`. On a virtual machine, steal is time the hypervisor ran
/// something else while this guest wanted the CPU: a run with a large
/// steal share measured a slower machine.
pub fn steal_and_total_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}
