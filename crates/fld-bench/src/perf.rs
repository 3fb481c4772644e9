//! Where a measurement ran. (Host speed itself is recorded in one
//! place, the `benchmark/` package.)

use std::process::Command;

/// Where a benchmark ran: enough to judge whether two records' host
/// timings are comparable (a 1-core container and a 32-core workstation
/// are not).
#[derive(Debug, Clone)]
pub struct HostMeta {
    /// `std::thread::available_parallelism` (1 when undetectable).
    pub cores: usize,
    /// `rustc --version` output, or `"unknown"`.
    pub rustc: String,
    /// Short git commit hash of the working tree, or `"unknown"`.
    pub git_sha: String,
    /// Operating system (compile-time `std::env::consts::OS`).
    pub os: &'static str,
}

impl HostMeta {
    /// Probes the current host.
    pub fn detect() -> HostMeta {
        HostMeta {
            cores: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            rustc: command_line(Command::new("rustc").arg("--version")),
            git_sha: command_line(
                Command::new("git")
                    .args(["rev-parse", "--short", "HEAD"])
                    .current_dir(crate::repo_root()),
            ),
            os: std::env::consts::OS,
        }
    }
}

/// First output line of `cmd`, or `"unknown"` when the command is
/// missing or fails.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::trim).map(String::from))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_meta_detects_something() {
        let meta = HostMeta::detect();
        assert!(meta.cores >= 1);
        assert!(!meta.rustc.is_empty());
        assert!(!meta.git_sha.is_empty());
        assert!(!meta.os.is_empty());
    }
}
