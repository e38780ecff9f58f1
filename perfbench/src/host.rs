//! Host and build identity, recorded with every result.

use std::fmt;

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Identity {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `rustc --version` of the build.
    pub rustc: &'static str,
    /// The `-C target-cpu` the build used.
    pub target_cpu: &'static str,
    /// Commit of the checkout, when it is a git work tree.
    pub git_sha: String,
}

impl Identity {
    /// Probe the running host.
    pub fn probe() -> Identity {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "none".into());
        Identity {
            cpu,
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC"),
            target_cpu: env!("PERFBENCH_TARGET_CPU"),
            git_sha,
        }
    }
}

/// Hardware threads available to the process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl fmt::Display for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={:?} nproc={} rustc={:?} target-cpu={} git={}",
            self.cpu, self.nproc, self.rustc, self.target_cpu, self.git_sha
        )
    }
}
