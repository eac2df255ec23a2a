//! `compare A.json B.json`: one row per (end-to-end metric, workload)
//! of two result files written by `all`, B measured against A.

use std::path::Path;

use crate::json::Json;
use crate::workloads::{Tag, END_TO_END, PER_LAYER};

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_of<'a>(file: &'a Json, workload: &str, traced: bool) -> Option<&'a Json> {
    file.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("traced") == Some(&Json::Bool(traced))
    })
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn failed_frac(run: &Json) -> f64 {
    let n = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    n("failed") / n("attempted").max(1.0)
}

/// By how much of `a` the metric got worse from `a` to `b`; negative
/// when it got better.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Prints the table; `Ok(false)` when a bound is exceeded, more
/// operations failed, or a count that must repeat exactly did not.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let scale = |f: &Json| f.get("meta").and_then(|m| m.get("scale")).cloned();
    if scale(&a) != scale(&b) {
        return Err("the files were run at different scales; quick runs are never compared against full runs".to_string());
    }
    let workloads: Vec<&str> = a
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("the first file has no runs")?
        .iter()
        .filter_map(|r| r.get("workload").and_then(Json::as_str))
        .fold(Vec::new(), |mut seen, w| {
            if !seen.contains(&w) {
                seen.push(w);
            }
            seen
        });

    let mut ok = true;
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in &workloads {
        let (Some(ra), Some(rb)) = (run_of(&a, w, false), run_of(&b, w, false)) else {
            println!("{w:<22} missing from one file");
            ok = false;
            continue;
        };
        for e in &END_TO_END {
            let (Some(va), Some(vb)) = (metric(ra, e.name), metric(rb, e.name)) else {
                println!("{w:<22} {:<20} missing", e.name);
                ok = false;
                continue;
            };
            let worse = worsening(va, vb, e.higher_is_better);
            let within = worse <= e.bound;
            ok &= within;
            println!(
                "{w:<22} {:<20} {va:>14.6} {vb:>14.6} {:>+8.1}% {:>6.0}%  {}",
                e.name,
                worse * 100.0,
                e.bound * 100.0,
                if within { "ok" } else { "REGRESSION" }
            );
        }
        let (fa, fb) = (failed_frac(ra), failed_frac(rb));
        if fb > fa {
            ok = false;
            println!("{w:<22} failed_frac rose from {fa} to {fb}: REGRESSION");
        }
        // Counts and simulated numbers compare two versions of one
        // program exactly; any difference is reported, whatever its size.
        if let (Some(ta), Some(tb)) = (run_of(&a, w, true), run_of(&b, w, true)) {
            for p in PER_LAYER.iter().filter(|p| p.tag != Tag::Measured) {
                let (va, vb) = (metric(ta, p.name), metric(tb, p.name));
                if va != vb {
                    ok = false;
                    println!(
                        "{w:<22} {:<20} {va:?} != {vb:?} [{}]: NOT EXACT",
                        p.name,
                        p.tag.name()
                    );
                }
            }
        }
    }
    println!(
        "{}",
        if ok {
            "within every bound"
        } else {
            "NOT within every bound"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_the_metric_direction() {
        assert!((worsening(2.0, 2.2, false) - 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 1.8, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!(worsening(100.0, 120.0, true) < 0.0);
    }

    fn file(search_wall_s: f64, failed: f64, pairs: f64) -> Json {
        let m = |v: f64| Json::obj([("value", Json::Num(v))]);
        let e2e = Json::obj([
            ("workload", Json::str("bank_heavy")),
            ("traced", Json::Bool(false)),
            ("attempted", Json::Num(20.0)),
            ("failed", Json::Num(failed)),
            (
                "metrics",
                Json::obj(END_TO_END.iter().map(|e| {
                    (
                        e.name,
                        m(if e.name == "search_wall_s" {
                            search_wall_s
                        } else {
                            1.0
                        }),
                    )
                })),
            ),
        ]);
        let traced = Json::obj([
            ("workload", Json::str("bank_heavy")),
            ("traced", Json::Bool(true)),
            (
                "metrics",
                Json::obj(
                    PER_LAYER
                        .iter()
                        .map(|p| (p.name, m(if p.name == "step2.pairs" { pairs } else { 3.0 }))),
                ),
            ),
        ]);
        Json::obj([
            ("meta", Json::obj([("scale", Json::str("full"))])),
            ("runs", Json::Arr(vec![e2e, traced])),
        ])
    }

    fn verdict(a: &Json, b: &Json) -> bool {
        let dir = std::env::temp_dir().join(format!("psc-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, a.pretty()).unwrap();
        std::fs::write(&pb, b.pretty()).unwrap();
        let out = compare(&pa, &pb).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        out
    }

    #[test]
    fn bounds_failures_and_exact_counts_decide_the_exit() {
        let base = file(1.0, 0.0, 1e8);
        assert!(
            verdict(&base, &file(1.24, 0.0, 1e8)),
            "24 % worse is within 25 %"
        );
        assert!(!verdict(&base, &file(1.26, 0.0, 1e8)), "26 % worse is not");
        assert!(verdict(&base, &file(0.5, 0.0, 1e8)), "better is fine");
        assert!(!verdict(&base, &file(1.0, 1.0, 1e8)), "a new failure");
        assert!(!verdict(&base, &file(1.0, 0.0, 1e8 + 1.0)), "a count moved");
    }
}
