//! The host record printed with every result, and the peak resident set.
//!
//! Two result files are comparable only when their host records agree on
//! cores, CPU, L2 and the build's `target-cpu`; the source fingerprint
//! tells which code ran.

use crate::report::json_str;
use std::path::Path;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub target_cpu: String,
    pub commit: String,
    pub source_fnv64: String,
}

impl Host {
    /// Gather the record; `root` is the checkout the benchmark runs in.
    pub fn probe(root: &Path) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let l2 = (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
                (level.trim() == "2")
                    .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                    .flatten()
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let target_cpu = std::fs::read_to_string(root.join(".cargo/config.toml"))
            .ok()
            .and_then(|t| parse_target_cpu(&t))
            .unwrap_or_else(|| "default".into());
        Host {
            nproc,
            cpu_model,
            l2,
            target_cpu,
            commit: git_head(root).unwrap_or_else(|| "unavailable".into()),
            source_fnv64: format!("{:016x}", source_fingerprint(root)),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"l2\": {}, \"target_cpu\": {}, \"commit\": {}, \"source_fnv64\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.l2),
            json_str(&self.target_cpu),
            json_str(&self.commit),
            json_str(&self.source_fnv64),
        )
    }
}

/// `target-cpu=<x>` from a cargo config's rustflags.
pub fn parse_target_cpu(config: &str) -> Option<String> {
    let at = config.find("target-cpu=")? + "target-cpu=".len();
    let rest = &config[at..];
    let end = rest
        .find(|c: char| c == '"' || c == '\'' || c.is_whitespace() || c == ',')
        .unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

/// The commit checked out at `root`, read from `.git` when the checkout
/// is a repository (it need not be).
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}

/// FNV-1a over the paths and bytes of the program's sources (`crates/`,
/// the root manifest and the cargo config), in sorted path order.
fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join(".cargo/config.toml"));
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            feed(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

/// Steal and total CPU ticks of the whole host so far (`/proc/stat`): the
/// share of time the hypervisor ran other guests on this guest's CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Steal share of CPU time between two [`cpu_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_cpu_is_read_from_rustflags() {
        let cfg =
            "[target.x86_64-unknown-linux-gnu]\nrustflags = [\"-C\", \"target-cpu=x86-64-v3\"]\n";
        assert_eq!(parse_target_cpu(cfg).as_deref(), Some("x86-64-v3"));
        assert_eq!(parse_target_cpu("[build]\n"), None);
    }

    #[test]
    fn steal_share_is_a_fraction() {
        assert_eq!(steal_share(Some((10, 100)), Some((30, 200))), Some(0.2));
        assert_eq!(steal_share(Some((10, 100)), Some((10, 100))), None);
        assert_eq!(steal_share(None, Some((1, 2))), None);
    }

    #[test]
    fn rss_is_positive() {
        assert!(rss_peak_mb() > 0.0);
    }
}
