//! Readings from `/proc` and order statistics.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of a whole process, all threads included
/// (exited ones too), from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// CPU seconds this process has used, all threads included (exited ones
/// too), at nanosecond resolution.
pub fn own_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux) and the clock id is one every Linux C library accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        cpu_seconds("self").unwrap_or(0.0)
    }
}

/// Peak resident set size (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// On-CPU and run-queue nanoseconds of one thread, from its `schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sched {
    pub on_cpu_ns: u64,
    pub wait_ns: u64,
}

fn parse_sched(text: &str) -> Option<Sched> {
    let mut fields = text.split_whitespace();
    Some(Sched {
        on_cpu_ns: fields.next()?.parse().ok()?,
        wait_ns: fields.next()?.parse().ok()?,
    })
}

/// The calling thread's `/proc/thread-self/schedstat`, kept open so each
/// reading is one `pread`.
pub struct ThreadSched(Option<File>);

impl ThreadSched {
    pub fn open() -> Self {
        ThreadSched(File::open("/proc/thread-self/schedstat").ok())
    }

    /// The current reading; zeros when the kernel does not expose it.
    pub fn read(&self) -> Sched {
        let mut buf = [0u8; 96];
        self.0
            .as_ref()
            .and_then(|f| f.read_at(&mut buf, 0).ok())
            .and_then(|n| std::str::from_utf8(&buf[..n]).ok().and_then(parse_sched))
            .unwrap_or_default()
    }
}

/// Summed `schedstat` of every live thread of process `pid`, keyed by
/// thread id.
pub fn process_threads_sched(pid: &str) -> Vec<(String, Sched)> {
    let dir = format!("/proc/{pid}/task");
    let Ok(entries) = std::fs::read_dir(Path::new(&dir)) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| {
            let tid = e.file_name().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(e.path().join("schedstat")).ok()?;
            Some((tid, parse_sched(&text)?))
        })
        .collect()
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the median for `q = 0.5`). `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile up to the 99th that has at least ten samples
/// beyond it (never below the median): the p99 from 1000 samples on.
pub fn tail(values: &[f64]) -> f64 {
    let q = (1.0 - 10.0 / values.len().max(1) as f64).clamp(0.5, 0.99);
    quantile(values, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&many), quantile(&many, 0.99));
        assert_eq!(tail(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn own_process_readings_exist() {
        assert!(cpu_seconds("self").is_some());
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
