//! The machine fingerprint stamped on every result, and the process's peak
//! resident memory.

use std::process::Command;

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the tree, when the tree is a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this machine and tree. Fields that cannot be
    /// read are `"unknown"`.
    pub fn read() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model,
            rustc: command_line(Command::new("rustc").arg("--version")).unwrap_or_else(unknown),
            git_rev: git_rev().unwrap_or_else(unknown),
        }
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

/// The tree's commit. Git may not look above the tree's root, so a tree
/// that is not itself a checkout reads as unknown rather than as whatever
/// repository encloses it.
fn git_rev() -> Option<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    let ceiling = root.parent()?;
    command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

/// First line of a command's standard output, when it exits successfully.
fn command_line(command: &mut Command) -> Option<String> {
    let output = command.stderr(std::process::Stdio::null()).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_the_machine() {
        let fp = Fingerprint::read();
        assert!(fp.nproc >= 1);
        assert!(!fp.cpu_model.is_empty());
        assert!(fp.rustc.starts_with("rustc") || fp.rustc == "unknown");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
