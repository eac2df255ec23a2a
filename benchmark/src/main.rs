//! `psc-benchmark`: one hermetic benchmark of the psc-rasc pipeline.
//!
//! ```text
//! psc-benchmark run --workload W --seed N --seconds S --trace 0|1 [--quick]
//! psc-benchmark all [--seed N] [--seconds S] [--quick] [--out FILE]
//! psc-benchmark bless [--seed N] [--quick]
//! psc-benchmark compare A.json B.json
//! psc-benchmark describe
//! ```
//!
//! `run` is what the driver calls: one workload, one process, the last
//! line of standard output is the result. `all` runs the four workloads
//! end to end and traced and writes one result file. See README.md.

mod child;
mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use workloads::Scale;

/// Seed of a run that names none.
pub const DEFAULT_SEED: u64 = 0x9a9e;
/// Seconds one run measures when none are given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 1.0;

/// `--name value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some("quick") => args.flags.push(("quick".into(), "1".into())),
                Some(name) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.to_string(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rfind(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn scale(&self) -> Scale {
        match self.get("quick") {
            Some(_) => Scale::Quick,
            None => Scale::Full,
        }
    }

    fn seed(&self) -> Result<u64, String> {
        let Some(text) = self.get("seed") else {
            return Ok(DEFAULT_SEED);
        };
        match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        }
        .map_err(|_| format!("--seed {text:?} is not a number"))
    }

    fn seconds(&self, scale: Scale) -> Result<f64, String> {
        let default = match scale {
            Scale::Full => DEFAULT_SECONDS,
            Scale::Quick => QUICK_SECONDS,
        };
        match self.get("seconds") {
            None => Ok(default),
            Some(text) => text
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("--seconds {text:?} is not a positive number")),
        }
    }

    fn traced(&self) -> Result<bool, String> {
        match self.get("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("--trace takes 0 or 1, not {other:?}")),
        }
    }

    fn home(&self) -> PathBuf {
        PathBuf::from(self.get("home").unwrap_or("benchmark"))
    }

    fn run_args(&self, traced: bool) -> Result<runner::RunArgs, String> {
        let scale = self.scale();
        let name = self.get("workload").ok_or("--workload is required")?;
        Ok(runner::RunArgs {
            home: self.home(),
            workload: scale
                .workload(name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?,
            scale,
            seed: self.seed()?,
            seconds: self.seconds(scale)?,
            traced,
        })
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let record = runner::run(&args.run_args(args.traced()?)?)?;
    println!("host: {}", host::facts().compact());
    record.print();
    println!("{}", record.driver_line());
    Ok(record.correct)
}

fn all(args: &Args) -> Result<bool, String> {
    let scale = args.scale();
    let home = args.home();
    let out = args
        .get("out")
        .map_or_else(|| home.join("out").join("results.json"), PathBuf::from);
    let mut meta = host::facts();
    meta.set("scale", Json::str(scale.name()));
    meta.set("seed", Json::str(format!("{:#x}", args.seed()?)));
    println!("host: {}", meta.compact());
    let mut runs = Vec::new();
    let mut correct = true;
    for w in scale.workloads() {
        for traced in [false, true] {
            let record = runner::run(&runner::RunArgs {
                home: home.clone(),
                workload: w,
                scale,
                seed: args.seed()?,
                seconds: args.seconds(scale)?,
                traced,
            })?;
            record.print();
            correct &= record.correct;
            runs.push(record.to_json());
        }
    }
    let results = Json::obj([("meta", meta), ("runs", Json::Arr(runs))]);
    std::fs::write(&out, results.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(correct)
}

fn child(args: &Args) -> Result<bool, String> {
    let run = args.run_args(args.traced()?)?;
    let report = child::run(&child::ChildArgs {
        workload: run.workload,
        dir: PathBuf::from(args.get("dir").ok_or("--dir is required")?),
        seconds: run.seconds,
        traced: run.traced,
        trace_file: PathBuf::from(args.get("trace-file").ok_or("--trace-file is required")?),
        seed: run.seed,
    })?;
    println!("{}", report.compact());
    Ok(true)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("run") => run(&args),
            Some("all") => all(&args),
            Some("child") => child(&args),
            Some("bless") => runner::bless(&args.home(), args.scale(), args.seed()?).map(|()| true),
            Some("describe") => {
                print!("{}", workloads::describe());
                Ok(true)
            }
            Some("compare") => match &args.words[1..] {
                [a, b] => compare::compare(a.as_ref(), b.as_ref()),
                _ => Err("compare takes two result files".to_string()),
            },
            _ => Err(
                "usage: psc-benchmark run|all|bless|compare|describe ... (see README.md)"
                    .to_string(),
            ),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("psc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_string)).unwrap()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args("run --workload genome_heavy --seed 17 --seconds 20 --trace 1");
        let run = a.run_args(a.traced().unwrap()).unwrap();
        assert_eq!(run.workload.name, "genome_heavy");
        assert_eq!((run.seed, run.seconds, run.traced), (17, 20.0, true));
        assert_eq!(run.scale, Scale::Full);
    }

    #[test]
    fn defaults_hex_seeds_quick_and_bad_values() {
        let a = args("all --quick --seed 0x9a9e");
        assert_eq!(a.seed().unwrap(), DEFAULT_SEED);
        assert_eq!(a.scale(), Scale::Quick);
        assert_eq!(a.seconds(Scale::Quick).unwrap(), QUICK_SECONDS);
        assert!(!a.traced().unwrap());
        assert!(args("run --seconds -1").seconds(Scale::Full).is_err());
        assert!(args("run --trace 2").traced().is_err());
        assert!(args("run --workload nope").run_args(false).is_err());
        assert!(Args::parse(["--seed".to_string()].into_iter()).is_err());
    }
}
