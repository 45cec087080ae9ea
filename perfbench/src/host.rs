//! The host block printed with every result: what machine, toolchain and
//! revision a figure was measured on.

use std::process::Command;

/// Host facts for one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown` outside
    /// a git checkout.
    pub git: String,
    /// The scheduler backend the workloads ran on.
    pub scheduler: &'static str,
    /// The workload seed.
    pub seed: u64,
}

/// The first line of a command's standard output; the command is waited
/// for, and any failure reads as `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::trim).map(String::from))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// Probes the host.
    pub fn probe(scheduler: &'static str, seed: u64) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu: cpu_model(),
            rustc: command_line("rustc", &["-V"]),
            git: command_line("git", &["rev-parse", "HEAD"]),
            scheduler,
            seed,
        }
    }

    /// The host block as one JSON object.
    pub fn to_json(&self) -> String {
        use bft_simulator::sim_core::json::Json;
        Json::obj([
            ("nproc", Json::from(self.nproc)),
            ("cpu", Json::from(self.cpu.as_str())),
            ("rustc", Json::from(self.rustc.as_str())),
            ("git", Json::from(self.git.as_str())),
            ("scheduler", Json::from(self.scheduler)),
            ("seed", Json::from(self.seed)),
        ])
        .dump()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
