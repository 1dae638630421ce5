//! What the benchmark reads about processes from outside them: on-CPU
//! time from `/proc/<pid>/task/*/schedstat`, thread names from `comm`,
//! peak resident memory from `status`, and a process's children.

use std::fs;

/// On-CPU nanoseconds: the first field of a `schedstat` line.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) in kB from a `status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Parent pid from a `stat` line. The command name (field 2) is in
/// parentheses and may itself hold spaces or parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_ppid(stat: &str) -> Option<u32> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// Thread ids of `pid` (none when the process is gone).
pub fn task_ids(pid: u32) -> Vec<u32> {
    fs::read_dir(format!("/proc/{pid}/task"))
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// On-CPU nanoseconds summed over the threads of `pid` whose name starts
/// with `prefix` (every thread for an empty prefix). The kernel updates a
/// running thread's figure at scheduler ticks, so read it over intervals
/// of a hundred milliseconds or more.
pub fn cpu_ns(pid: u32, prefix: &str) -> u64 {
    task_ids(pid)
        .into_iter()
        .filter(|tid| {
            prefix.is_empty()
                || fs::read_to_string(format!("/proc/{pid}/task/{tid}/comm"))
                    .is_ok_and(|c| c.trim_end().starts_with(prefix))
        })
        .filter_map(|tid| fs::read_to_string(format!("/proc/{pid}/task/{tid}/schedstat")).ok())
        .filter_map(|s| parse_schedstat(&s))
        .sum()
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or(0)
}

pub fn own_pid() -> u32 {
    std::process::id()
}

/// Peak resident set of `pid` in MB (0 when the process is gone).
pub fn peak_rss_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live children of `pid`, each with its command line (arguments joined by
/// spaces). The cluster launcher keeps its child handles private, so the
/// benchmark finds the node processes the way an operator would.
pub fn children(pid: u32) -> Vec<(u32, String)> {
    let mut out: Vec<(u32, String)> = fs::read_dir("/proc")
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
                .filter(|child| {
                    fs::read_to_string(format!("/proc/{child}/stat"))
                        .ok()
                        .and_then(|s| parse_stat_ppid(&s))
                        == Some(pid)
                })
                .map(|child| {
                    let cmd = fs::read(format!("/proc/{child}/cmdline")).unwrap_or_default();
                    (child, String::from_utf8_lossy(&cmd).replace('\0', " "))
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat_status_and_stat() {
        assert_eq!(parse_schedstat("8392017 54384 117\n"), Some(8_392_017));
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1680 kB\nVmRSS:\t 1200 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1680));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        // A command name with spaces and a parenthesis must not shift fields.
        assert_eq!(
            parse_stat_ppid("4242 (l7 shard) x) S 77 4242 4242 0 -1"),
            Some(77)
        );
    }

    #[test]
    fn reads_named_thread_cpu_from_proc() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let t = std::thread::Builder::new()
            .name("l7-shard-9".into())
            .spawn(move || {
                let mut x = 0u64;
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        let busy = cpu_ns(own_pid(), "l7-shard-");
        let all = cpu_ns(own_pid(), "");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        t.join().unwrap();
        assert!(busy > 5_000_000, "spinning thread showed {busy} ns on CPU");
        assert_eq!(cpu_ns(own_pid(), "no-such-thread"), 0);
        assert!(all >= busy);
        assert!(peak_rss_mb(own_pid()) > 0.5);
    }
}
