//! Process accounting from `/proc` (the workspace carries no libc
//! binding): CPU time, peak resident memory, and the `shardd` children.

use std::fs;

/// Milliseconds per kernel clock tick as `/proc/<pid>/stat` reports
/// them (`USER_HZ`, 100 on every Linux ABI).
const MS_PER_TICK: f64 = 10.0;

/// The fields of `/proc/<pid>/stat` after the `(comm)` field, which may
/// itself contain spaces and parentheses.
fn stat_fields(pid: &str) -> Option<(String, Vec<String>)> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_string();
    let rest = text
        .get(close + 1..)?
        .split_whitespace()
        .map(String::from)
        .collect();
    Some((comm, rest))
}

/// User + system CPU milliseconds consumed so far by every thread of
/// process `pid` (`"self"` for this process). 0 when unreadable.
pub fn cpu_ms(pid: &str) -> f64 {
    // After `(comm)`: state ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime stime — indices 11 and 12.
    stat_fields(pid)
        .and_then(|(_, f)| {
            let utime: u64 = f.get(11)?.parse().ok()?;
            let stime: u64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) as f64 * MS_PER_TICK)
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB. 0 when
/// unreadable.
pub fn peak_rss_mib(pid: &str) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Pids of this process's live children whose command name is `comm`
/// (the supervisor keeps its `Child` handles private, so the harness
/// finds the `shardd` processes the way `ps --ppid` would).
pub fn children_named(comm: &str) -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<String> = dir
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| stat_fields(pid).is_some_and(|(c, f)| c == comm && f.get(1) == Some(&me)))
        .collect();
    pids.sort();
    pids
}

/// Milliseconds the hypervisor has run something else while a virtual
/// CPU of this machine wanted to run (the `steal` column of
/// `/proc/stat`, summed over CPUs). On a shared host this is what a
/// disturbed run looks like from the inside. 0 when unreadable.
pub fn steal_ms() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            // cpu user nice system idle iowait irq softirq steal …
            let ticks: u64 = text
                .lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse()
                .ok()?;
            Some(ticks as f64 * MS_PER_TICK)
        })
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn logical_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        // Burn a little CPU so the tick counter is past zero.
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_ms("self") > 0.0);
        assert!(peak_rss_mib("self") > 0.0);
        assert!(logical_cpus() >= 1);
        assert!(children_named("no-such-command").is_empty());
        assert_eq!(cpu_ms("0"), 0.0);
    }
}
