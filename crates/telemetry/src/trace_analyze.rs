//! Trace analysis: cross-lane critical path, exhaustive stall
//! attribution, reconciliation against [`RunReport`] span walls, and
//! the `psc trace render` / `psc trace analyze` text views.
//!
//! # Stall taxonomy
//!
//! Every non-busy microsecond of every lane is attributed to exactly
//! one named stall class, so `busy + stalls == lane wall` holds by
//! construction (the invariant `psc trace analyze` and the tests
//! enforce):
//!
//! | class                 | source                                     |
//! |-----------------------|--------------------------------------------|
//! | `merge-wait`          | `merge_wait` spans (in-order merge holds)  |
//! | `scheduler-tail`      | residual idle on host lanes                |
//! | `board-idle`          | residual idle on simulated-board lanes     |
//!
//! Residual idle is measured against the lane's **stage window** (the
//! `[earliest start, latest end]` hull of the stage's own spans), not
//! the whole trace — a step-2 lane is not "stalled" while step 3 runs.

use std::collections::BTreeMap;

use crate::report::RunReport;
use crate::trace::{Lane, SpanEvent, Trace, TraceClock};

/// Merge thread holding for in-order shard results.
pub const STALL_MERGE_WAIT: &str = "merge-wait";
/// Residual host-lane idle inside the stage window (LPT imbalance,
/// pull-counter tail).
pub const STALL_SCHEDULER_TAIL: &str = "scheduler-tail";
/// Residual simulated-board idle inside the stage window (waiting on
/// DMA or the double-buffer partner).
pub const STALL_BOARD_IDLE: &str = "board-idle";

/// Map a span name to its stall class, or `None` for busy work.
pub fn stall_class(span_name: &str) -> Option<&'static str> {
    match span_name {
        "merge_wait" => Some(STALL_MERGE_WAIT),
        _ => None,
    }
}

/// One lane's exhaustive time accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneBreakdown {
    pub name: String,
    pub stage: String,
    pub sim_clock: bool,
    /// Width of the lane's stage window, microseconds.
    pub wall_us: f64,
    /// Sum of non-stall span durations.
    pub busy_us: f64,
    /// Stall class -> microseconds; includes the residual class.
    pub stalls: BTreeMap<String, f64>,
}

impl LaneBreakdown {
    pub fn stall_us(&self) -> f64 {
        self.stalls.values().sum()
    }

    /// `busy + stalls` — must equal `wall_us` within fp tolerance.
    pub fn accounted_us(&self) -> f64 {
        self.busy_us + self.stall_us()
    }
}

/// One hop of the cross-lane critical path, in execution order.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalStep {
    pub lane: String,
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
}

/// The full analysis `psc trace analyze` prints and `experiments`
/// consumes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceAnalysis {
    pub clock: TraceClock,
    pub dropped: u64,
    /// Sorted like the trace's lanes: host lanes first, then board.
    pub lanes: Vec<LaneBreakdown>,
    /// Stall class -> total microseconds across all lanes.
    pub stall_totals: BTreeMap<String, f64>,
    /// Busy microseconds across all lanes.
    pub busy_total_us: f64,
    /// Backward-chained longest dependency chain, execution order.
    pub critical_path: Vec<CriticalStep>,
    /// Lane changes along the critical path (cross-lane hops).
    pub critical_switches: usize,
    /// `[0, 1]`: chain span / analysis window (1 = one chain explains
    /// the whole wall).
    pub critical_coverage: f64,
    /// Width of the critical-path clock domain's window, microseconds.
    pub window_us: f64,
}

/// Hull of a span set: `[min start, max end]`, or `None` when empty.
fn span_hull<'a>(spans: impl Iterator<Item = &'a SpanEvent>) -> Option<(f64, f64)> {
    let mut hull: Option<(f64, f64)> = None;
    for s in spans {
        let (lo, hi) = hull.unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
        hull = Some((lo.min(s.start_us), hi.max(s.end_us())));
    }
    hull
}

/// Analyze a finished (or re-imported) trace.
pub fn analyze(trace: &Trace) -> TraceAnalysis {
    // Stage windows, keyed by clock domain + stage.
    let mut windows: BTreeMap<(bool, String), (f64, f64)> = BTreeMap::new();
    for lane in &trace.lanes {
        if let Some((lo, hi)) = span_hull(lane.spans.iter()) {
            let entry = windows
                .entry((lane.sim_clock, lane.stage.clone()))
                .or_insert((lo, hi));
            entry.0 = entry.0.min(lo);
            entry.1 = entry.1.max(hi);
        }
    }

    let mut analysis = TraceAnalysis {
        clock: trace.clock,
        dropped: trace.dropped,
        ..TraceAnalysis::default()
    };
    for lane in &trace.lanes {
        let Some(&(lo, hi)) = windows.get(&(lane.sim_clock, lane.stage.clone())) else {
            continue; // lane with no spans: nothing to account
        };
        let wall_us = hi - lo;
        let mut busy_us = 0.0f64;
        let mut stalls: BTreeMap<String, f64> = BTreeMap::new();
        for s in &lane.spans {
            match stall_class(&s.name) {
                Some(class) => *stalls.entry(class.to_string()).or_insert(0.0) += s.dur_us,
                None => busy_us += s.dur_us,
            }
        }
        let residual_class = if lane.sim_clock {
            STALL_BOARD_IDLE
        } else {
            STALL_SCHEDULER_TAIL
        };
        let residual = (wall_us - busy_us - stalls.values().sum::<f64>()).max(0.0);
        *stalls.entry(residual_class.to_string()).or_insert(0.0) += residual;
        for (class, us) in &stalls {
            *analysis.stall_totals.entry(class.clone()).or_insert(0.0) += us;
        }
        analysis.busy_total_us += busy_us;
        analysis.lanes.push(LaneBreakdown {
            name: lane.name.clone(),
            stage: lane.stage.clone(),
            sim_clock: lane.sim_clock,
            wall_us,
            busy_us,
            stalls,
        });
    }

    // Critical path over the host clock domain (fall back to the board
    // domain for board-only traces).
    let host_has_spans = trace
        .lanes
        .iter()
        .any(|l| !l.sim_clock && !l.spans.is_empty());
    let domain: Vec<&Lane> = if host_has_spans {
        trace.lanes.iter().filter(|l| !l.sim_clock).collect()
    } else {
        trace.lanes.iter().collect()
    };
    analysis.window_us = span_hull(domain.iter().flat_map(|l| l.spans.iter()))
        .map(|(lo, hi)| hi - lo)
        .unwrap_or(0.0);
    analysis.critical_path = critical_path(&domain);
    analysis.critical_switches = analysis
        .critical_path
        .windows(2)
        .filter(|w| w[0].lane != w[1].lane)
        .count();
    if analysis.window_us > 0.0 {
        if let (Some(first), Some(last)) = (
            analysis.critical_path.first(),
            analysis.critical_path.last(),
        ) {
            let span = last.start_us + last.dur_us - first.start_us;
            analysis.critical_coverage = (span / analysis.window_us).clamp(0.0, 1.0);
        }
    }
    analysis
}

/// Backward-greedy longest chain: start from the span that ends last,
/// then repeatedly hop to the span that was still running at (or
/// finished closest before) the current span's start — the work the
/// current span had to wait for. Deterministic: ties break on the
/// lexicographically last `(lane, name)`.
fn critical_path(domain: &[&Lane]) -> Vec<CriticalStep> {
    let mut spans: Vec<(&str, &SpanEvent)> = domain
        .iter()
        .flat_map(|l| l.spans.iter().map(move |s| (l.name.as_str(), s)))
        .filter(|(_, s)| s.dur_us > 0.0)
        .collect();
    if spans.is_empty() {
        return Vec::new();
    }
    spans.sort_by(|a, b| {
        a.1.start_us
            .total_cmp(&b.1.start_us)
            .then_with(|| a.0.cmp(b.0))
            .then_with(|| a.1.name.cmp(&b.1.name))
    });

    let key_end = |x: &(&str, &SpanEvent)| (x.1.end_us(), x.0.to_string(), x.1.name.clone());
    let mut current = spans
        .iter()
        .max_by(|a, b| {
            let (ea, la, na) = key_end(a);
            let (eb, lb, nb) = key_end(b);
            ea.total_cmp(&eb).then_with(|| (la, na).cmp(&(lb, nb)))
        })
        .copied()
        .expect("non-empty span set");
    let mut chain = vec![current];
    loop {
        let t = current.1.start_us;
        // Prefer a span still covering t (it gated the handoff); among
        // those, the latest-starting one. Otherwise the latest-ending
        // span that finished by t.
        let covering = spans
            .iter()
            .filter(|(_, s)| s.start_us < t && s.end_us() >= t)
            .max_by(|a, b| {
                a.1.start_us
                    .total_cmp(&b.1.start_us)
                    .then_with(|| a.0.cmp(b.0))
                    .then_with(|| a.1.name.cmp(&b.1.name))
            })
            .copied();
        let pred = covering.or_else(|| {
            spans
                .iter()
                .filter(|(_, s)| s.end_us() <= t)
                .max_by(|a, b| {
                    a.1.end_us()
                        .total_cmp(&b.1.end_us())
                        .then_with(|| a.0.cmp(b.0))
                        .then_with(|| a.1.name.cmp(&b.1.name))
                })
                .copied()
        });
        match pred {
            Some(p) => {
                chain.push(p);
                current = p;
            }
            None => break,
        }
    }
    chain.reverse();
    chain
        .into_iter()
        .map(|(lane, s)| CriticalStep {
            lane: lane.to_string(),
            name: s.name.clone(),
            start_us: s.start_us,
            dur_us: s.dur_us,
        })
        .collect()
}

/// One reconciliation row: a trace-side total checked against a
/// [`RunReport`] span wall.
#[derive(Clone, Debug, PartialEq)]
pub struct ReconcileRow {
    pub name: String,
    pub trace_seconds: f64,
    pub report_seconds: f64,
    /// `eq` rows must match within tolerance; `le` rows must not
    /// exceed the report side.
    pub upper_bound: bool,
    pub ok: bool,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-3)
}

/// Check the trace's busy/stall totals against the report's span
/// walls. Only meaningful for wall-clock traces (virtual ticks are
/// modeled, not measured): virtual traces yield no rows.
pub fn reconcile(analysis: &TraceAnalysis, report: &RunReport) -> Vec<ReconcileRow> {
    if analysis.clock == TraceClock::Virtual {
        return Vec::new();
    }
    let span = |name: &str| {
        report
            .spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.seconds)
    };
    let mut rows = Vec::new();
    // step-3 extension: the trace's extend spans are the very same
    // per-shard measurements the report's span sums.
    if let Some(rep) = span("step3.extension") {
        // `+ 0.0` normalizes the empty sum, which is -0.0 (and which
        // `max(0.0)` may NOT normalize: IEEE maxNum treats the zeros
        // as equal and may return either).
        let trace_s = (analysis
            .lanes
            .iter()
            .filter(|l| l.stage == crate::keys::STAGE_STEP3.as_str())
            .map(|l| l.busy_us)
            .sum::<f64>()
            + 0.0)
            / 1.0e6;
        rows.push(ReconcileRow {
            name: "step3.extension".into(),
            trace_seconds: trace_s,
            report_seconds: rep,
            upper_bound: false,
            ok: close(trace_s, rep),
        });
    }
    if let Some(rep) = span("step3.merge_wait") {
        let trace_s = (analysis
            .lanes
            .iter()
            .map(|l| l.stalls.get(STALL_MERGE_WAIT).copied().unwrap_or(0.0))
            .sum::<f64>()
            + 0.0)
            / 1.0e6;
        rows.push(ReconcileRow {
            name: "step3.merge_wait".into(),
            trace_seconds: trace_s,
            report_seconds: rep,
            upper_bound: false,
            ok: close(trace_s, rep),
        });
    }
    // step-2 busy is per-item kernel time; the report's step2.wall span
    // bounds it from above (wall includes scheduling overhead).
    if let Some(rep) = span("step2.wall") {
        let threads: f64 = analysis
            .lanes
            .iter()
            .filter(|l| l.stage == crate::keys::STAGE_STEP2.as_str())
            .count()
            .max(1) as f64;
        let trace_s = (analysis
            .lanes
            .iter()
            .filter(|l| l.stage == crate::keys::STAGE_STEP2.as_str())
            .map(|l| l.busy_us)
            .sum::<f64>()
            + 0.0)
            / 1.0e6;
        rows.push(ReconcileRow {
            name: "step2.wall".into(),
            trace_seconds: trace_s,
            report_seconds: rep * threads,
            upper_bound: true,
            ok: trace_s <= rep * threads * (1.0 + 1e-6) + 1e-6,
        });
    }
    rows
}

// ---- text renderings -----------------------------------------------

fn fmt_us(us: f64) -> String {
    format!("{:.6}", us / 1.0e6)
}

/// `psc trace render`: an ASCII timeline, one row per lane, `#` busy,
/// `~` attributed stall spans, `.` idle, one section per clock domain.
pub fn render_timeline(trace: &Trace, width: usize) -> String {
    let width = width.max(10);
    let mut out = String::new();
    out.push_str(&format!(
        "Trace timeline ({} clock{})\n",
        trace.clock.name(),
        if trace.dropped > 0 {
            format!(", {} units dropped", trace.dropped)
        } else {
            String::new()
        }
    ));
    for sim in [false, true] {
        let lanes: Vec<&Lane> = trace
            .lanes
            .iter()
            .filter(|l| l.sim_clock == sim && !l.spans.is_empty())
            .collect();
        let Some((lo, hi)) = span_hull(lanes.iter().flat_map(|l| l.spans.iter())) else {
            continue;
        };
        let window = (hi - lo).max(1e-9);
        out.push_str(&format!(
            "\n{} [{} s .. {} s]\n",
            if sim {
                "simulated board clock"
            } else {
                "host clock"
            },
            fmt_us(lo),
            fmt_us(hi)
        ));
        let name_w = lanes.iter().map(|l| l.name.len()).max().unwrap_or(0).max(4);
        for lane in lanes {
            let mut row = vec![b'.'; width];
            for s in &lane.spans {
                let a = (((s.start_us - lo) / window) * width as f64).floor() as usize;
                let b = (((s.end_us() - lo) / window) * width as f64).ceil() as usize;
                let glyph = if stall_class(&s.name).is_some() {
                    b'~'
                } else {
                    b'#'
                };
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    // Busy wins over stall when both map to one cell.
                    if *cell != b'#' {
                        *cell = glyph;
                    }
                }
            }
            let bar = String::from_utf8(row).expect("ascii row");
            out.push_str(&format!(
                "  {:<name_w$} |{bar}| {:>3} spans\n",
                lane.name,
                lane.spans.len()
            ));
        }
    }
    out.push_str("\n  # busy   ~ attributed stall   . idle\n");
    out
}

/// `psc trace analyze`: per-lane accounting, stall totals, and the
/// critical path.
pub fn render_analysis(analysis: &TraceAnalysis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Trace analysis ({} clock, {} lanes, {} units dropped)\n",
        analysis.clock.name(),
        analysis.lanes.len(),
        analysis.dropped
    ));
    out.push_str(&format!(
        "\nLane accounting (busy + stalls == lane wall)\n  {:<24} {:>12} {:>12} {:>7}   stalls\n",
        "lane", "wall s", "busy s", "busy%"
    ));
    for lane in &analysis.lanes {
        let busy_pct = if lane.wall_us > 0.0 {
            lane.busy_us / lane.wall_us * 100.0
        } else {
            100.0
        };
        let stalls = lane
            .stalls
            .iter()
            .filter(|(_, us)| **us > 0.0)
            .map(|(class, us)| format!("{class} {}", fmt_us(*us)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "  {:<24} {:>12} {:>12} {:>6.2}%   {}\n",
            lane.name,
            fmt_us(lane.wall_us),
            fmt_us(lane.busy_us),
            busy_pct,
            stalls
        ));
    }
    out.push_str("\nStall totals\n");
    if analysis.stall_totals.values().all(|us| *us <= 0.0) {
        out.push_str("  (no stalls attributed)\n");
    }
    for (class, us) in &analysis.stall_totals {
        if *us <= 0.0 {
            continue;
        }
        out.push_str(&format!("  {:<24} {:>12} s\n", class, fmt_us(*us)));
    }
    out.push_str(&format!(
        "\nCritical path ({} steps, {} lane switches, {:.2}% of window)\n",
        analysis.critical_path.len(),
        analysis.critical_switches,
        analysis.critical_coverage * 100.0
    ));
    for step in &analysis.critical_path {
        out.push_str(&format!(
            "  {:>12} s  +{:<12} {:<24} {}\n",
            fmt_us(step.start_us),
            fmt_us(step.dur_us),
            step.lane,
            step.name
        ));
    }
    out
}

/// Reconciliation rows as `psc trace analyze --report FILE` prints.
pub fn render_reconcile(rows: &[ReconcileRow]) -> String {
    let mut out = String::new();
    out.push_str("\nRunReport reconciliation\n");
    if rows.is_empty() {
        out.push_str("  (virtual clock or no matching spans: nothing to reconcile)\n");
        return out;
    }
    for r in rows {
        out.push_str(&format!(
            "  {:<24} trace {:>12} s  report {:>12} s  {}  [{}]\n",
            r.name,
            format!("{:.6}", r.trace_seconds),
            format!("{:.6}", r.report_seconds),
            if r.upper_bound { "<=" } else { "==" },
            if r.ok { "ok" } else { "MISMATCH" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{self, Key};
    use crate::trace::{stage_of, InstantEvent, RingTracer, Tracer, UnitEvent, UnitTrace};

    fn lane(name: &str, sim: bool, spans: Vec<(&str, f64, f64)>) -> Lane {
        Lane {
            name: name.to_string(),
            stage: stage_of(name).to_string(),
            sim_clock: sim,
            spans: spans
                .into_iter()
                .map(|(n, start, dur)| SpanEvent {
                    name: n.to_string(),
                    start_us: start,
                    dur_us: dur,
                })
                .collect(),
            instants: Vec::new(),
        }
    }

    fn two_stage_trace() -> Trace {
        Trace {
            clock: TraceClock::Wall,
            dropped: 0,
            meta: Vec::new(),
            lanes: vec![
                lane("step2.w0", false, vec![("kernel", 0.0, 100.0)]),
                lane("step2.w1", false, vec![("kernel", 0.0, 60.0)]),
                lane(
                    "step3.w0",
                    false,
                    vec![("extend", 100.0, 50.0), ("merge_wait", 150.0, 10.0)],
                ),
            ],
        }
    }

    #[test]
    fn attribution_is_exhaustive_per_lane() {
        let analysis = analyze(&two_stage_trace());
        assert_eq!(analysis.lanes.len(), 3);
        for lane in &analysis.lanes {
            assert!(
                (lane.accounted_us() - lane.wall_us).abs() < 1e-9,
                "busy {} + stalls {} != wall {} on {}",
                lane.busy_us,
                lane.stall_us(),
                lane.wall_us,
                lane.name
            );
        }
        // step2.w1 idles 40µs inside step2's 100µs window -> tail.
        let w1 = &analysis.lanes[1];
        assert_eq!(w1.name, "step2.w1");
        assert_eq!(w1.stalls.get(STALL_SCHEDULER_TAIL), Some(&40.0));
        // step3.w0: 50 extend busy, 10 merge-wait, 0 residual.
        let w3 = &analysis.lanes[2];
        assert_eq!(w3.busy_us, 50.0);
        assert_eq!(w3.stalls.get(STALL_MERGE_WAIT), Some(&10.0));
        assert_eq!(w3.stalls.get(STALL_SCHEDULER_TAIL), Some(&0.0));
    }

    #[test]
    fn stage_windows_do_not_leak_across_stages() {
        // step2 lanes must not absorb step3's duration as tail stall.
        let analysis = analyze(&two_stage_trace());
        assert_eq!(analysis.lanes[0].wall_us, 100.0);
        assert_eq!(analysis.lanes[2].wall_us, 60.0);
        assert_eq!(analysis.window_us, 160.0);
    }

    #[test]
    fn critical_path_crosses_lanes_backward() {
        let analysis = analyze(&two_stage_trace());
        let names: Vec<(&str, &str)> = analysis
            .critical_path
            .iter()
            .map(|s| (s.lane.as_str(), s.name.as_str()))
            .collect();
        // merge_wait ends last; extend covered its start; the long
        // step-2 kernel covered extend's start.
        assert_eq!(
            names,
            vec![
                ("step2.w0", "kernel"),
                ("step3.w0", "extend"),
                ("step3.w0", "merge_wait"),
            ]
        );
        assert_eq!(analysis.critical_switches, 1);
        assert!((analysis.critical_coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn board_lanes_get_board_idle() {
        let trace = Trace {
            clock: TraceClock::Wall,
            dropped: 0,
            meta: Vec::new(),
            lanes: vec![
                lane("board.compute.fpga0", true, vec![("compute", 0.0, 80.0)]),
                lane("board.compute.fpga1", true, vec![("compute", 0.0, 40.0)]),
            ],
        };
        let analysis = analyze(&trace);
        let f0 = &analysis.lanes[0];
        assert_eq!(f0.stalls.get(STALL_BOARD_IDLE), Some(&0.0));
        let f1 = &analysis.lanes[1];
        assert_eq!(f1.stalls.get(STALL_BOARD_IDLE), Some(&40.0));
        assert_eq!(analysis.stall_totals.get(STALL_BOARD_IDLE), Some(&40.0));
    }

    #[test]
    fn reconcile_matches_report_spans() {
        use crate::report::SpanReport;
        let analysis = analyze(&two_stage_trace());
        let mut report = RunReport::new();
        report.spans = vec![
            SpanReport {
                name: "step2.wall".into(),
                seconds: 120.0 / 1.0e6,
                count: 1,
            },
            SpanReport {
                name: "step3.extension".into(),
                seconds: 50.0 / 1.0e6,
                count: 1,
            },
            SpanReport {
                name: "step3.merge_wait".into(),
                seconds: 10.0 / 1.0e6,
                count: 1,
            },
        ];
        let rows = reconcile(&analysis, &report);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.ok), "{rows:#?}");
        // A lying report must be caught.
        report.spans[1].seconds = 33.0 / 1.0e6;
        let rows = reconcile(&analysis, &report);
        let ext = rows.iter().find(|r| r.name == "step3.extension").unwrap();
        assert!(!ext.ok);
    }

    #[test]
    fn virtual_clock_reconcile_is_empty() {
        let mut trace = two_stage_trace();
        trace.clock = TraceClock::Virtual;
        let rows = reconcile(&analyze(&trace), &RunReport::new());
        assert!(rows.is_empty());
        assert!(render_reconcile(&rows).contains("nothing to reconcile"));
    }

    #[test]
    fn analysis_of_ring_tracer_output_is_deterministic() {
        let build = || {
            let t = RingTracer::new(TraceClock::Virtual);
            for i in 0..16u64 {
                t.commit(UnitTrace {
                    stage: keys::STAGE_STEP2,
                    index: i,
                    lane: 0,
                    start_seconds: None,
                    sim_clock: false,
                    events: vec![UnitEvent::span(&Key::test("kernel"), 0.0, (i % 5) + 1)],
                });
            }
            render_analysis(&analyze(&t.finish(&[])))
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn renders_cover_all_sections() {
        let trace = two_stage_trace();
        let timeline = render_timeline(&trace, 60);
        assert!(timeline.contains("host clock"), "{timeline}");
        assert!(timeline.contains("step2.w0"), "{timeline}");
        assert!(timeline.contains('#'), "{timeline}");
        let analysis = analyze(&trace);
        let text = render_analysis(&analysis);
        for needle in [
            "Lane accounting",
            "Stall totals",
            "scheduler-tail",
            "merge-wait",
            "Critical path (3 steps, 1 lane switches",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_trace_analyzes_cleanly() {
        let analysis = analyze(&Trace::default());
        assert!(analysis.lanes.is_empty());
        assert!(analysis.critical_path.is_empty());
        assert_eq!(analysis.window_us, 0.0);
        let _ = render_analysis(&analysis);
        let _ = render_timeline(&Trace::default(), 40);
    }

    #[test]
    fn instants_do_not_affect_accounting() {
        let mut trace = two_stage_trace();
        trace.lanes[0].instants.push(InstantEvent {
            name: "depth".into(),
            at_us: 5.0,
            value: 3,
        });
        let with = analyze(&trace);
        let without = analyze(&two_stage_trace());
        assert_eq!(with.lanes, without.lanes);
    }
}
