//! Where a measurement ran, and the argv helper that lets a binary keep
//! flags of its own while the shared [`crate::report::Cli`] still
//! hard-errors on anything it doesn't know. (Host speed itself is
//! recorded in one place, the `benchmark/` package.)

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

/// Removes `flag <value>` from `args`, returning the value. Used by
/// binaries to extract their own flags before handing the rest to
/// [`crate::report::Cli::parse_args`] — that keeps the shared parser's
/// unknown-flag hard error intact for everything else.
pub fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("error: {flag} requires a value");
        std::process::exit(2);
    }
    args.remove(i);
    Some(args.remove(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn takes_bin_specific_flags_out_of_argv() {
        let mut args = strings(&["--quick", "--topology", "rack", "--jobs", "2"]);
        assert_eq!(
            take_flag_value(&mut args, "--topology").as_deref(),
            Some("rack")
        );
        assert_eq!(args, strings(&["--quick", "--jobs", "2"]));
        assert_eq!(take_flag_value(&mut args, "--topology"), None);
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn host_meta_detects_something() {
        let meta = HostMeta::detect();
        assert!(meta.cores >= 1);
        assert!(!meta.rustc.is_empty());
        assert!(!meta.git_sha.is_empty());
        assert!(!meta.os.is_empty());
    }
}
