//! Process probes read from `/proc/self`: CPU time, context switches
//! and resident memory, sampled at phase boundaries.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User plus system CPU seconds of the whole process, including
    /// threads that already exited.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches of the threads alive
    /// at sampling time (the kernel drops an exited thread's counts).
    pub ctx_switches: u64,
    /// Resident set size, MB.
    pub rss_mb: f64,
    /// High-water resident set size (`VmHWM`), MB.
    pub hwm_mb: f64,
}

impl ProcSample {
    /// Reads the counters now. Missing or unreadable files read as zero.
    pub fn now() -> ProcSample {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        ProcSample {
            cpu_s: cpu_seconds(),
            ctx_switches: context_switches(),
            rss_mb: status_kb(&status, "VmRSS:") / 1024.0,
            hwm_mb: status_kb(&status, "VmHWM:") / 1024.0,
        }
    }
}

/// `utime + stime` from `/proc/self/stat`. The command name in field 2
/// may hold spaces, so fields are counted after its closing parenthesis.
fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    // After ")": state is field 3, utime field 14, stime field 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick =
        |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| {
            let status =
                fs::read_to_string(task.path().join("status")).unwrap_or_default();
            (status_kb(&status, "voluntary_ctxt_switches:")
                + status_kb(&status, "nonvoluntary_ctxt_switches:")) as u64
        })
        .sum()
}

/// The first number after `key` at the start of a line of a
/// `/proc/*/status` file.
fn status_kb(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}
