//! Outside resource probes: `/proc/<pid>` counters of a process, read
//! at the edges of a timed window. A probe that cannot be read is
//! `None` — reported as unavailable, never as zero.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, fixed at 100 in the Linux user ABI).
const TICKS_PER_S: f64 = 100.0;

/// Which process to probe.
#[derive(Debug, Clone, Copy)]
pub enum Pid {
    /// The benchmark process itself.
    Own,
    /// Another process, by id.
    Of(u32),
}

fn proc_file(pid: Pid, file: &str) -> Option<String> {
    let path = match pid {
        Pid::Own => format!("/proc/self/{file}"),
        Pid::Of(p) => format!("/proc/{p}/{file}"),
    };
    std::fs::read_to_string(path).ok()
}

fn field_kib(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib(pid: Pid) -> Option<f64> {
    let kib = field_kib(&proc_file(pid, "status")?, "VmHWM:")?;
    Some(kib as f64 / 1024.0)
}

/// User plus system CPU time consumed so far, in seconds.
pub fn cpu_s(pid: Pid) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Bytes the process has caused to be sent to the storage layer
/// (`write_bytes` of `/proc/<pid>/io`).
pub fn write_bytes(pid: Pid) -> Option<u64> {
    let io = proc_file(pid, "io")?;
    field_kib(&io, "write_bytes:")
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`), e.g. `ext4` or `tmpfs`.
pub fn fs_type(path: &Path) -> Option<String> {
    let abs = std::fs::canonicalize(path).ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let (pre, post) = line.split_once(" - ")?;
        let mount = pre.split_whitespace().nth(4)?;
        let fstype = post.split_whitespace().next()?;
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_owned()));
        }
    }
    best.map(|(_, t)| t)
}

/// Online processors, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU seconds the hypervisor gave to others while this machine's
/// processors wanted to run (`steal` of `/proc/stat`, all processors).
/// Noise from neighbours shows here, not in any process's own counters.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let steal: u64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(steal as f64 / TICKS_PER_S)
}

/// Counters at one edge of a timed window.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// CPU seconds consumed so far.
    pub cpu_s: Option<f64>,
    /// Storage bytes written so far.
    pub write_bytes: Option<u64>,
    /// Machine-wide steal seconds so far.
    pub steal_s: Option<f64>,
}

impl Edge {
    /// Samples the counters of `pid` now.
    pub fn sample(pid: Pid) -> Edge {
        Edge {
            cpu_s: cpu_s(pid),
            write_bytes: write_bytes(pid),
            steal_s: steal_s(),
        }
    }

    /// CPU seconds spent between `self` and the later edge `end`.
    pub fn cpu_between(&self, end: &Edge) -> Option<f64> {
        Some(end.cpu_s? - self.cpu_s?)
    }

    /// Steal seconds between `self` and the later edge `end`.
    pub fn steal_between(&self, end: &Edge) -> Option<f64> {
        Some(end.steal_s? - self.steal_s?)
    }

    /// Storage bytes written between `self` and the later edge `end`.
    pub fn bytes_between(&self, end: &Edge) -> Option<u64> {
        Some(end.write_bytes?.saturating_sub(self.write_bytes?))
    }
}
