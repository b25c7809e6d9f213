//! Readers for the Linux `/proc` files the benchmark measures with, and
//! the host provenance every record carries.
//!
//! `/proc/thread-self/schedstat` reports a thread's on-CPU and run-queue
//! nanoseconds. The kernel folds a running thread's time into the on-CPU
//! counter only at scheduler events (ticks, switches), so a delta around
//! one short call is 0 or a whole tick; the run-queue delay is settled at
//! every switch. See [`crate::ledger`] for how the two are used.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which is
/// 100 on every architecture Rust targets.
const USER_HZ: u64 = 100;

/// One reading of a thread's `/proc/.../schedstat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent on a CPU, in nanoseconds.
    pub on_cpu_ns: u64,
    /// Time spent runnable but waiting on a run queue, in nanoseconds.
    pub run_delay_ns: u64,
}

/// Parse a schedstat file: on-CPU ns, run-queue ns and a timeslice count.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    let on_cpu_ns = fields.next()??;
    let run_delay_ns = fields.next()??;
    let _timeslices = fields.next()??;
    Some(SchedStat {
        on_cpu_ns,
        run_delay_ns,
    })
}

/// The calling thread's schedstat file, held open so each reading is a
/// single positioned read. The file names the thread that opened it, so a
/// clock must be read on the thread that created it.
pub struct ThreadClock {
    file: File,
    buf: [u8; 128],
}

impl ThreadClock {
    /// Open the calling thread's schedstat.
    pub fn open() -> io::Result<Self> {
        Ok(ThreadClock {
            file: File::open("/proc/thread-self/schedstat")?,
            buf: [0; 128],
        })
    }

    /// Read the counters now.
    pub fn read(&mut self) -> io::Result<SchedStat> {
        let n = self.file.read_at(&mut self.buf, 0)?;
        std::str::from_utf8(&self.buf[..n])
            .ok()
            .and_then(parse_schedstat)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed schedstat"))
    }
}

/// User and system time, in `USER_HZ` ticks, from a `/proc/<pid>/stat`
/// line. The command name in field 2 may itself hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // after the name: state (field 3) ... utime (14), stime (15)
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// User plus system CPU time of the whole process (all threads, live and
/// exited), in nanoseconds, at `USER_HZ` resolution.
pub fn process_cpu_ns() -> io::Result<u64> {
    let text = std::fs::read_to_string("/proc/self/stat")?;
    let (utime, stime) = parse_proc_stat(&text)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed /proc/self/stat"))?;
    Ok((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` file,
/// in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = parse_vm_hwm_kb(&status)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))?;
    Ok(kb as f64 / 1024.0)
}

/// Where and how a record was measured.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// The CPU's model name.
    pub cpu_model: String,
    /// `release` or `debug`.
    pub build_profile: &'static str,
    /// The commit measured, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Provenance {
    /// Describe the host this process runs on.
    pub fn detect() -> Self {
        Provenance {
            nproc: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| parse_cpu_model(&s))
                .unwrap_or_else(|| "unknown".to_string()),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(std::path::Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The first `model name` of a `/proc/cpuinfo` file.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
}

/// The commit `HEAD` names in a git directory: a detached hash, or a
/// branch resolved through its loose ref or `packed-refs`.
fn git_commit(git_dir: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(hash, _)| hash.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_three_counters() {
        let s = parse_schedstat("123456789 42000 17\n").unwrap();
        assert_eq!(
            s,
            SchedStat {
                on_cpu_ns: 123_456_789,
                run_delay_ns: 42_000,
            }
        );
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("1 x 3"), None);
    }

    #[test]
    fn live_schedstat_is_monotone() {
        let mut clock = ThreadClock::open().unwrap();
        let a = clock.read().unwrap();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let b = clock.read().unwrap();
        assert!(b.on_cpu_ns >= a.on_cpu_ns);
        assert!(b.run_delay_ns >= a.run_delay_ns);
    }

    #[test]
    fn proc_stat_counts_fields_after_the_name() {
        // a command name with spaces and a ')' must not shift the fields
        let line = "4242 (we ird) name) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    731 29 0 0 20 0 3 0 12345 1000000 300";
        assert_eq!(parse_proc_stat(line), Some((731, 29)));
        assert_eq!(parse_proc_stat("no parens here"), None);
        let own = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_proc_stat(&own).is_some());
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    1388 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1388));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 10 kB\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn cpu_model_takes_the_first_entry() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\n\
                    processor\t: 1\nmodel name\t: Other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model("flags: sse\n"), None);
    }
}
