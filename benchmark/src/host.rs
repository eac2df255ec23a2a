//! Facts about the host and the build that every record carries, and
//! the process's own peak memory.

use std::process::Command;

use crate::json::Json;
use crate::layers;
use crate::workloads::WORKERS;

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The value of the first `key : value` line of a `/proc` text file.
fn proc_field(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

pub fn facts() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = proc_field(&cpuinfo, "flags").unwrap_or_default();
    let has = |f: &str| Json::Bool(flags.split_whitespace().any(|x| x == f));
    let (kernel, downgrade) = layers::kernel_facts();
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "cpu_model",
            Json::str(proc_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into())),
        ),
        ("avx2", has("avx2")),
        ("avx512bw", has("avx512bw")),
        ("step2_kernel", Json::str(kernel)),
        (
            "step2_kernel_downgrade",
            downgrade.map_or(Json::Null, Json::str),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("max_workers", Json::Num(WORKERS as f64)),
        (
            "stubs",
            Json::str(
                "crossbeam (scoped threads, bounded channel), bytes and parking_lot are the \
                 std-backed stand-ins under benchmark/stubs, not the published crates",
            ),
        ),
    ])
}

/// High-water mark of this process's resident set, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = proc_field(&status, "VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_fields_are_found_by_exact_key() {
        let text = "VmPeak:\t  900 kB\nVmHWM:\t  512 kB\nmodel name\t: Some CPU @ 2GHz\n";
        assert_eq!(proc_field(text, "VmHWM").as_deref(), Some("512 kB"));
        assert_eq!(
            proc_field(text, "model name").as_deref(),
            Some("Some CPU @ 2GHz")
        );
        assert_eq!(proc_field(text, "Vm"), None);
    }

    #[test]
    fn this_process_has_a_peak_and_the_record_names_the_kernel() {
        assert!(peak_rss_mb().unwrap() > 1.0);
        let f = facts();
        assert!(f.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert!(!f.get("step2_kernel").unwrap().as_str().unwrap().is_empty());
    }
}
