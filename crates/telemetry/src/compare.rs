//! Regression diffing between two [`RunReport`]s — the engine behind
//! `psc report --compare OLD NEW`, CI's first automated perf gate.
//!
//! Wall-clock rows (step effective seconds, total, span walls) are
//! gated by `max_wall_regress_pct`; counter rows by
//! `max_counter_regress_pct`. A row regresses when its gate is set,
//! its old value is nonzero, and its percent delta exceeds the gate.
//! Rows appearing on only one side are reported (as `added` /
//! `removed`) but never gate — a renamed counter should not fail CI
//! silently pretending to be a 100% regression.

use crate::report::RunReport;

/// What a [`DeltaRow`] measures, hence which threshold gates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// Seconds: step effective walls, the total, span walls.
    Wall,
    /// Event counts: `RunReport.counters`.
    Counter,
}

impl DeltaKind {
    pub fn name(&self) -> &'static str {
        match self {
            DeltaKind::Wall => "wall",
            DeltaKind::Counter => "counter",
        }
    }
}

/// Regression-gate thresholds, percent. `None` disables that gate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompareConfig {
    pub max_wall_regress_pct: Option<f64>,
    pub max_counter_regress_pct: Option<f64>,
}

/// One compared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaRow {
    pub name: String,
    pub kind: DeltaKind,
    pub old: f64,
    pub new: f64,
    /// `None` when the old side is zero or missing (delta undefined).
    pub delta_pct: Option<f64>,
    /// Present in only one report.
    pub added: bool,
    pub removed: bool,
    /// Tripped its gate.
    pub regression: bool,
}

/// The full diff `psc report --compare` renders.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReportDiff {
    pub rows: Vec<DeltaRow>,
    pub config: CompareConfig,
}

impl ReportDiff {
    pub fn regressions(&self) -> Vec<&DeltaRow> {
        self.rows.iter().filter(|r| r.regression).collect()
    }
}

fn push_row(
    rows: &mut Vec<DeltaRow>,
    name: &str,
    kind: DeltaKind,
    old: Option<f64>,
    new: Option<f64>,
    gate: Option<f64>,
) {
    let (o, n) = (old.unwrap_or(0.0), new.unwrap_or(0.0));
    if old.is_none() && new.is_none() {
        return;
    }
    let delta_pct = if old.is_some() && o != 0.0 {
        Some((n - o) / o * 100.0)
    } else {
        None
    };
    let regression = match (gate, delta_pct) {
        (Some(limit), Some(pct)) => old.is_some() && new.is_some() && pct > limit,
        _ => false,
    };
    rows.push(DeltaRow {
        name: name.to_string(),
        kind,
        old: o,
        new: n,
        delta_pct,
        added: old.is_none(),
        removed: new.is_none(),
        regression,
    });
}

/// Sorted union of the names two metric lists cover.
fn name_union<'a>(
    old: impl Iterator<Item = &'a str>,
    new: impl Iterator<Item = &'a str>,
) -> Vec<String> {
    let mut names: Vec<String> = old.map(str::to_string).collect();
    for n in new {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    }
    names
}

/// Diff `new` against `old` under `config`'s gates.
pub fn diff_reports(old: &RunReport, new: &RunReport, config: CompareConfig) -> ReportDiff {
    let mut rows = Vec::new();
    let wall_gate = config.max_wall_regress_pct;
    let counter_gate = config.max_counter_regress_pct;

    for name in name_union(
        old.steps.iter().map(|s| s.name.as_str()),
        new.steps.iter().map(|s| s.name.as_str()),
    ) {
        let find = |r: &RunReport| {
            r.steps
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.effective_seconds())
        };
        push_row(
            &mut rows,
            &format!("step:{name}"),
            DeltaKind::Wall,
            find(old),
            find(new),
            wall_gate,
        );
    }
    push_row(
        &mut rows,
        "total",
        DeltaKind::Wall,
        Some(old.total_seconds()),
        Some(new.total_seconds()),
        wall_gate,
    );
    for name in name_union(
        old.spans.iter().map(|s| s.name.as_str()),
        new.spans.iter().map(|s| s.name.as_str()),
    ) {
        let find = |r: &RunReport| r.spans.iter().find(|s| s.name == name).map(|s| s.seconds);
        push_row(
            &mut rows,
            &format!("span:{name}"),
            DeltaKind::Wall,
            find(old),
            find(new),
            wall_gate,
        );
    }
    for name in name_union(
        old.counters.iter().map(|(k, _)| k.as_str()),
        new.counters.iter().map(|(k, _)| k.as_str()),
    ) {
        let find = |r: &RunReport| {
            r.counters
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v as f64)
        };
        push_row(
            &mut rows,
            &format!("counter:{name}"),
            DeltaKind::Counter,
            find(old),
            find(new),
            counter_gate,
        );
    }
    ReportDiff { rows, config }
}

fn fmt_value(kind: DeltaKind, v: f64) -> String {
    match kind {
        DeltaKind::Wall => format!("{v:.6}"),
        DeltaKind::Counter => format!("{}", v as u64),
    }
}

/// Text diff as `psc report --compare` prints it.
pub fn render_diff(diff: &ReportDiff) -> String {
    let mut out = String::new();
    out.push_str("Report comparison (old -> new)\n");
    match (
        diff.config.max_wall_regress_pct,
        diff.config.max_counter_regress_pct,
    ) {
        (None, None) => out.push_str("  gates: none (informational diff)\n"),
        (w, c) => {
            let gate = |g: Option<f64>| match g {
                Some(pct) => format!("+{pct}%"),
                None => "off".to_string(),
            };
            out.push_str(&format!(
                "  gates: wall {} / counter {}\n",
                gate(w),
                gate(c)
            ));
        }
    }
    out.push_str(&format!(
        "  {:<36} {:>14} {:>14} {:>10}\n",
        "metric", "old", "new", "delta"
    ));
    for r in &diff.rows {
        let delta = if r.added {
            "added".to_string()
        } else if r.removed {
            "removed".to_string()
        } else {
            match r.delta_pct {
                Some(pct) => format!("{pct:+.2}%"),
                None => "n/a".to_string(),
            }
        };
        out.push_str(&format!(
            "  {:<36} {:>14} {:>14} {:>10}{}\n",
            r.name,
            fmt_value(r.kind, r.old),
            fmt_value(r.kind, r.new),
            delta,
            if r.regression { "  REGRESSION" } else { "" }
        ));
    }
    let bad = diff.regressions();
    if bad.is_empty() {
        out.push_str("\nNo regressions beyond thresholds.\n");
    } else {
        out.push_str(&format!(
            "\n{} regression(s) beyond thresholds:\n",
            bad.len()
        ));
        for r in bad {
            out.push_str(&format!(
                "  {} {} -> {} ({:+.2}% > {}% {} gate)\n",
                r.name,
                fmt_value(r.kind, r.old),
                fmt_value(r.kind, r.new),
                r.delta_pct.unwrap_or(0.0),
                match r.kind {
                    DeltaKind::Wall => diff.config.max_wall_regress_pct.unwrap_or(0.0),
                    DeltaKind::Counter => diff.config.max_counter_regress_pct.unwrap_or(0.0),
                },
                r.kind.name()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{SpanReport, StepReport};

    fn report(step2_wall: f64, pairs: u64) -> RunReport {
        let mut r = RunReport::new();
        r.steps = vec![
            StepReport {
                name: "step1".into(),
                wall_seconds: 0.5,
                accelerated_seconds: None,
            },
            StepReport {
                name: "step2".into(),
                wall_seconds: step2_wall,
                accelerated_seconds: None,
            },
        ];
        r.spans = vec![SpanReport {
            name: "step2.wall".into(),
            seconds: step2_wall,
            count: 1,
        }];
        r.counters = vec![("step2.pairs".into(), pairs)];
        r
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let a = report(2.0, 100);
        let diff = diff_reports(
            &a,
            &a,
            CompareConfig {
                max_wall_regress_pct: Some(0.0),
                max_counter_regress_pct: Some(0.0),
            },
        );
        assert!(diff.regressions().is_empty(), "{diff:#?}");
        let text = render_diff(&diff);
        assert!(text.contains("No regressions"), "{text}");
        assert!(text.contains("+0.00%"), "{text}");
    }

    #[test]
    fn wall_regression_trips_wall_gate_only() {
        let old = report(2.0, 100);
        let new = report(2.5, 100); // +25% wall
        let diff = diff_reports(
            &old,
            &new,
            CompareConfig {
                max_wall_regress_pct: Some(10.0),
                max_counter_regress_pct: Some(0.0),
            },
        );
        let names: Vec<&str> = diff.regressions().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["step:step2", "total", "span:step2.wall"]);
        assert!(render_diff(&diff).contains("REGRESSION"));
    }

    #[test]
    fn counter_regression_respects_counter_gate() {
        let old = report(2.0, 100);
        let new = report(2.0, 130); // +30% pairs
        let loose = diff_reports(
            &old,
            &new,
            CompareConfig {
                max_wall_regress_pct: Some(0.0),
                max_counter_regress_pct: Some(50.0),
            },
        );
        assert!(loose.regressions().is_empty(), "{loose:#?}");
        let tight = diff_reports(
            &old,
            &new,
            CompareConfig {
                max_wall_regress_pct: Some(0.0),
                max_counter_regress_pct: Some(10.0),
            },
        );
        let names: Vec<&str> = tight
            .regressions()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(names, vec!["counter:step2.pairs"]);
    }

    #[test]
    fn improvements_never_regress() {
        let old = report(2.0, 100);
        let new = report(1.0, 50);
        let diff = diff_reports(
            &old,
            &new,
            CompareConfig {
                max_wall_regress_pct: Some(0.0),
                max_counter_regress_pct: Some(0.0),
            },
        );
        assert!(diff.regressions().is_empty(), "{diff:#?}");
    }

    #[test]
    fn one_sided_metrics_report_but_never_gate() {
        let old = report(2.0, 100);
        let mut new = report(2.0, 100);
        new.counters.push(("trace.units".into(), 512));
        let mut old2 = old.clone();
        old2.counters.push(("legacy.counter".into(), 7));
        let diff = diff_reports(
            &old2,
            &new,
            CompareConfig {
                max_wall_regress_pct: Some(0.0),
                max_counter_regress_pct: Some(0.0),
            },
        );
        assert!(diff.regressions().is_empty(), "{diff:#?}");
        let text = render_diff(&diff);
        assert!(text.contains("added"), "{text}");
        assert!(text.contains("removed"), "{text}");
    }

    #[test]
    fn zero_old_value_yields_no_delta_and_no_gate() {
        let old = report(2.0, 0);
        let new = report(2.0, 10);
        let diff = diff_reports(
            &old,
            &new,
            CompareConfig {
                max_wall_regress_pct: Some(0.0),
                max_counter_regress_pct: Some(0.0),
            },
        );
        let row = diff
            .rows
            .iter()
            .find(|r| r.name == "counter:step2.pairs")
            .unwrap();
        assert_eq!(row.delta_pct, None);
        assert!(!row.regression);
        assert!(render_diff(&diff).contains("n/a"));
    }
}
