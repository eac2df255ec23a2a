//! `psc-analyzer` — run the workspace lint pass.
//!
//! ```text
//! cargo run -p psc-analyzer [-- --root DIR] [--config FILE]
//! ```
//!
//! Exits 0 when the workspace is clean, 1 with `file:line` diagnostics
//! when any lint fires, 2 on usage or configuration errors.

use std::path::PathBuf;
use std::process::ExitCode;

use psc_analyzer::{analyze_workspace, Config};

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("psc-analyzer: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--config" => {
                config_path = Some(PathBuf::from(args.next().ok_or("--config needs a value")?));
            }
            "--help" | "-h" => {
                eprintln!("usage: psc-analyzer [--root DIR] [--config FILE]");
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let config_path = config_path.unwrap_or_else(|| root.join("analyzer.toml"));
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("read {}: {e}", config_path.display()))?;
    let config = Config::parse(&text).map_err(|e| format!("{}: {e}", config_path.display()))?;

    let report = analyze_workspace(&root, &config)?;
    if report.files_checked == 0 {
        // A gate that silently checks nothing would pass CI on a wrong
        // --root; make the misconfiguration loud instead.
        return Err(format!(
            "no .rs files found under {} — wrong --root?",
            root.display()
        ));
    }
    for d in &report.diagnostics {
        println!("{d}");
    }
    eprintln!(
        "psc-analyzer: {} file(s) checked, {} fn(s), {} call edge(s); {} of {} call sites resolved ({:.1} %), the rest assumed safe; {} violation(s)",
        report.files_checked,
        report.functions,
        report.call_edges,
        report.resolved_calls,
        report.resolved_calls + report.unresolved_calls,
        100.0 * report.resolved_fraction(),
        report.diagnostics.len()
    );
    Ok(report.is_clean())
}
