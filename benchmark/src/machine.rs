//! The machine descriptor stamped into every result file: wall-clock
//! numbers mean nothing without the box they were measured on.

use std::collections::BTreeMap;
use std::process::Command;

use horse_telemetry::json::JsonValue;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Git sha (`unknown` outside a git checkout — the acceptance driver
/// runs the benchmark from a plain copy), seed, `nproc`, CPU model,
/// rustc version and the measured window.
pub fn descriptor(seed: u64, seconds: f64) -> JsonValue {
    let text = |s: String| JsonValue::String(s);
    let unknown = || "unknown".to_string();
    let mut map = BTreeMap::new();
    map.insert(
        "git_sha".to_string(),
        text(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
    );
    map.insert("seed".to_string(), JsonValue::Number(seed as f64));
    map.insert("nproc".to_string(), JsonValue::Number(nproc() as f64));
    map.insert("cpu_model".to_string(), text(cpu_model()));
    map.insert(
        "rustc".to_string(),
        text(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
    );
    map.insert("window_seconds".to_string(), JsonValue::Number(seconds));
    JsonValue::Object(map)
}
