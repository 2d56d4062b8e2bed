//! Process resource usage read from the kernel, for the CPU-time and
//! peak-memory metrics and the `os.*` layer. The host has no `perf`, so CPU
//! time, minor faults and context switches come from `getrusage`, which
//! (unlike the per-task `/proc/self/status` switch counts) includes every
//! thread of the process, also those a fork-join has already joined; peak
//! resident memory comes from `VmHWM` in `/proc/self/status`.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux: two timevals followed by fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Cumulative usage of the whole process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub minor_faults: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub vol_ctx_switches: f64,
    pub invol_ctx_switches: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let zero = || Timeval {
            tv_sec: 0,
            tv_usec: 0,
        };
        let mut ru = Rusage {
            ru_utime: zero(),
            ru_stime: zero(),
            ru_maxrss: 0,
            ru_ixrss: 0,
            ru_idrss: 0,
            ru_isrss: 0,
            ru_minflt: 0,
            ru_majflt: 0,
            ru_nswap: 0,
            ru_inblock: 0,
            ru_oublock: 0,
            ru_msgsnd: 0,
            ru_msgrcv: 0,
            ru_nsignals: 0,
            ru_nvcsw: 0,
            ru_nivcsw: 0,
        };
        // SAFETY: `ru` is a live, writable `struct rusage` with the layout
        // the C library expects, and RUSAGE_SELF is a valid selector; the
        // call writes only into `ru`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            minor_faults: ru.ru_minflt as f64,
            user_s: secs(&ru.ru_utime),
            sys_s: secs(&ru.ru_stime),
            vol_ctx_switches: ru.ru_nvcsw as f64,
            invol_ctx_switches: ru.ru_nivcsw as f64,
        }
    }

    /// Usage accrued between `self` (earlier) and `later`.
    pub fn delta(&self, later: &Usage) -> Usage {
        Usage {
            minor_faults: later.minor_faults - self.minor_faults,
            user_s: later.user_s - self.user_s,
            sys_s: later.sys_s - self.sys_s,
            vol_ctx_switches: later.vol_ctx_switches - self.vol_ctx_switches,
            invol_ctx_switches: later.invol_ctx_switches - self.invol_ctx_switches,
        }
    }

    /// CPU seconds, user plus system.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Share of CPU time spent in the kernel.
    pub fn sys_frac(&self) -> f64 {
        let cpu = self.cpu_s();
        if cpu > 0.0 {
            self.sys_s / cpu
        } else {
            0.0
        }
    }
}

/// What one call cost: wall seconds, and CPU seconds of every thread of the
/// process. The kernel leaves the time the hypervisor ran another guest on
/// this one's CPUs (steal) out of CPU time, but not out of wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f` and returns its result with what it cost.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let before = Usage::now();
    let t = std::time::Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = before.delta(&Usage::now()).cpu_s();
    (out, Cost { wall_s, cpu_s })
}

/// Peak resident set size of the process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
