//! Process counters and the machine fingerprint, read from `/proc`.
//!
//! Everything here is plain text parsing of Linux procfs files, so the
//! benchmark needs no dependencies. On a system without `/proc` the
//! readers return zeros and the fingerprint says `unknown`.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for `/proc/self/stat` CPU times
/// (`USER_HZ`, fixed at 100 by the Linux ABI on every mainstream
/// architecture).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds consumed by this process so far, and
/// the system part alone.
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, sys) = (tick(11), tick(12));
    ((user + sys) / TICKS_PER_SECOND, sys / TICKS_PER_SECOND)
}

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&text, "VmHWM:") as f64 / 1024.0
}

/// `(voluntary, involuntary)` context switches summed over every live
/// thread of this process. Threads that already exited are not counted,
/// which is why the benchmark reads this at `jobs = 1`, where the
/// runtime's task threads are pooled and never exit.
pub fn context_switches() -> (u64, u64) {
    let mut total = (0, 0);
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        if let Ok(text) = fs::read_to_string(task.path().join("status")) {
            total.0 += status_field(&text, "voluntary_ctxt_switches:");
            total.1 += status_field(&text, "nonvoluntary_ctxt_switches:");
        }
    }
    total
}

/// `(steal, total)` CPU time of the whole machine from the first line of
/// `/proc/stat`, in ticks. Steal is time the hypervisor gave this
/// machine's CPUs to someone else; a run with a high steal share was
/// measured on a contended host.
pub fn steal_and_total_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// What identifies the box a result was measured on. Results whose
/// fingerprints differ were measured on different machines or
/// toolchains and must not be compared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `/proc/version`.
    pub kernel: String,
    /// Version of the compiler that built this binary.
    pub rustc: String,
}

impl Fingerprint {
    /// Reads the fingerprint of the running machine.
    pub fn current() -> Self {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
        let kernel = fs::read_to_string("/proc/version")
            .map_or("unknown".to_string(), |v| v.trim().to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
        }
    }

    /// One line, `machine nproc=.. cpu=".." kernel=".." rustc=".."`;
    /// two results come from the same box exactly when these lines are
    /// equal.
    pub fn line(&self) -> String {
        format!(
            "machine nproc={} cpu={:?} kernel={:?} rustc={:?}",
            self.nproc, self.cpu, self.kernel, self.rustc
        )
    }
}

/// The commit the checkout is at, read from `.git` under `root`, or
/// `unknown` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    let packed = fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// A hash of every `.rs` and `.toml` file under `root/crates`, in path
/// order: identifies the measured source even where there is no git
/// metadata.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend(fs::read(&file).unwrap_or_default());
    }
    format!("{:016x}", icb_core::hash::fingerprint_bytes(&bytes))
}
