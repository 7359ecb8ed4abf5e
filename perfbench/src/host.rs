//! Process and host facts: CPU time, peak resident set, hypervisor steal,
//! core count and the dispatched SIMD level.

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by this process so far, all threads (including
/// exited ones), at nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this builds for), which is all
    // clock_gettime writes through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds the hypervisor gave to others while this host's CPUs wanted
/// to run (`steal` in `/proc/stat`, all CPUs), or 0 where it is not kept.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.0);
    // USER_HZ is 100 on every Linux target this builds for.
    ticks / 100.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn simd_level() -> &'static str {
    pathweaver_vector::active_simd_level().name()
}
