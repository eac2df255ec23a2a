//! Paper-style text renderings of a [`RunReport`].
//!
//! * [`render_breakdown`] — the Table 1/7 per-step percentage table;
//! * [`render_utilization`] — the Table 5-style per-FPGA PE utilization
//!   view, extended with stall share and FIFO high-water marks;
//! * [`render_step2`] — step-2 pairs next to the window bytes gathered
//!   for them;
//! * [`render_histogram`] — ASCII-bar log2 histograms (per-key pair
//!   counts);
//! * [`render_report`] — all sections combined, as `psc report` prints.

use crate::keys;
use crate::recorder::Histogram;
use crate::report::RunReport;

/// Seconds with sensible precision across the ns..s range.
fn fmt_seconds(s: f64) -> String {
    if s == 0.0 {
        "0".to_string()
    } else if s.abs() < 1e-3 {
        format!("{:.3e}", s)
    } else if s.abs() < 1.0 {
        format!("{:.4}", s)
    } else {
        format!("{:.3}", s)
    }
}

/// Table 1/7-style breakdown: effective seconds and percent per step.
pub fn render_breakdown(report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str("Step time breakdown (paper Table 1/7 accounting)\n");
    out.push_str(&format!(
        "  {:<10} {:>12} {:>8}   {}\n",
        "step", "seconds", "%", "notes"
    ));
    for step in &report.steps {
        let secs = step.effective_seconds();
        let total = report.total_seconds();
        let pct = if total > 0.0 {
            secs / total * 100.0
        } else {
            0.0
        };
        let note = if step.accelerated_seconds.is_some() {
            format!("accelerated (host wall {})", fmt_seconds(step.wall_seconds))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  {:<10} {:>12} {:>7.2}%   {}\n",
            step.name,
            fmt_seconds(secs),
            pct,
            note
        ));
    }
    let total = report.total_seconds();
    out.push_str(&format!(
        "  {:<10} {:>12} {:>7.2}%\n",
        "total",
        fmt_seconds(total),
        if total > 0.0 { 100.0 } else { 0.0 }
    ));
    if total <= 0.0 {
        out.push_str("  (no timed steps: stripped or empty run, percentages omitted)\n");
    }
    out
}

/// Table 5-style per-FPGA utilization, plus stall share, FIFO peaks
/// and the DMA/sync/setup split from the board model.
pub fn render_utilization(report: &RunReport) -> String {
    let Some(board) = &report.board else {
        return "No board telemetry (software backend run).\n".to_string();
    };
    let mut out = String::new();
    out.push_str(&format!(
        "Simulated RASC board ({} PEs per FPGA, {} entries, {} hits)\n",
        board.pe_count, board.entries, board.hit_count
    ));
    if let Some(kernel) = report.meta_value(keys::RASC_HOST_KERNEL) {
        out.push_str(&format!(
            "  simulator host kernel: {kernel} (host time only; simulated numbers do not depend on it)\n"
        ));
    }
    out.push_str(&format!(
        "  {:<6} {:>14} {:>12} {:>8} {:>12} {:>10}\n",
        "fpga", "cycles", "stalls", "stall%", "util%", "fifo_peak"
    ));
    for (i, f) in board.fpga.iter().enumerate() {
        let stall_pct = if f.cycles > 0 {
            f.stall_cycles as f64 / f.cycles as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<6} {:>14} {:>12} {:>7.2}% {:>11.2}% {:>10}\n",
            i,
            f.cycles,
            f.stall_cycles,
            stall_pct,
            f.utilization * 100.0,
            f.fifo_peak
        ));
    }
    out.push_str(&format!(
        "  DMA: {} B in ({} s wire), {} B out ({} s wire)\n",
        board.bytes_in,
        fmt_seconds(board.wire_in_seconds),
        board.bytes_out,
        fmt_seconds(board.wire_out_seconds)
    ));
    out.push_str(&format!(
        "  sync {} s, setup {} s, accelerated total {} s\n",
        fmt_seconds(board.sync_seconds),
        fmt_seconds(board.setup_seconds),
        fmt_seconds(board.accelerated_seconds)
    ));
    out.push_str(&format!(
        "  DMA/compute overlap: {} s ({:.2}% occupancy, double-buffered dispatch)\n",
        fmt_seconds(board.overlap_seconds),
        board.overlap_occupancy * 100.0
    ));
    out
}

/// Step-2 section: the pair rectangle next to the window bytes read to
/// fill it. Windows gathered per pair is what separates a score-bound
/// run (long lists on both sides, near 0) from a gather-bound one
/// (a short list against a long one, near 1). Empty for reports that
/// predate the gather counter.
pub fn render_step2(report: &RunReport) -> String {
    let (Some(pairs), Some(bytes)) = (
        report.counter(keys::STEP2_PAIRS),
        report.counter(keys::STEP2_GATHER_BYTES),
    ) else {
        return String::new();
    };
    let mut out = format!(
        "Step 2\n  {pairs} pairs over {} active keys, {bytes} window bytes gathered",
        report.counter(keys::STEP2_ACTIVE_KEYS).unwrap_or(0),
    );
    let window_len = report
        .meta_value(keys::WINDOW_LEN)
        .and_then(|l| l.parse::<u64>().ok())
        .filter(|&l| l > 0 && pairs > 0);
    if let Some(l) = window_len {
        out.push_str(&format!(
            " ({:.3} windows per pair)",
            (bytes / l) as f64 / pairs as f64
        ));
    }
    out.push('\n');
    out
}

/// Step-3 section: the DP cells gapped extension evaluated — the work —
/// next to the anchors that caused it and, when the report still has
/// its wall clock, the time one cell took. Empty for reports that
/// predate the cell counter or had nothing to extend.
pub fn render_step3(report: &RunReport) -> String {
    let (Some(cells), Some(anchors)) = (
        report.counter(keys::STEP3_DP_CELLS),
        report.counter(keys::STEP3_ANCHORS).filter(|&a| a > 0),
    ) else {
        return String::new();
    };
    let mut out = format!(
        "Step 3\n  {cells} DP cells over {anchors} anchors ({:.0} cells per anchor",
        cells as f64 / anchors as f64
    );
    let extension = report
        .spans
        .iter()
        .find(|s| s.name == keys::STEP3_EXTENSION)
        .map(|s| s.seconds)
        .filter(|&s| s > 0.0 && cells > 0);
    if let Some(seconds) = extension {
        out.push_str(&format!(
            ", {:.2} ns per cell",
            seconds * 1e9 / cells as f64
        ));
    }
    out.push_str(")\n");
    out
}

/// One log2 histogram with ASCII bars scaled to `width` columns.
pub fn render_histogram(name: &str, h: &Histogram, width: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{name}: n={} mean={:.1} min={} max={}\n",
        h.count,
        h.mean(),
        h.min,
        h.max
    ));
    if h.count == 0 {
        return out;
    }
    let tallest = h.buckets.iter().copied().max().unwrap_or(0).max(1);
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar_len = ((c as f64 / tallest as f64) * width as f64).ceil() as usize;
        out.push_str(&format!(
            "  {:>21} {:>10} {}\n",
            Histogram::bucket_label(b),
            c,
            "#".repeat(bar_len)
        ));
    }
    out
}

/// The full `psc report` output: metadata, breakdown, board view,
/// counters, spans, and histograms.
pub fn render_report(report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("Run report (schema v{})\n", report.schema_version));
    if !report.meta.is_empty() {
        for (k, v) in &report.meta {
            out.push_str(&format!("  {k} = {v}\n"));
        }
    }
    if let Some(reason) = report.meta_value("step2.kernel.downgrade") {
        let requested = report.meta_value("step2.kernel.requested").unwrap_or("?");
        let resolved = report.meta_value("step2.kernel").unwrap_or("?");
        out.push_str(&format!(
            "  note: step-2 kernel downgraded {requested} -> {resolved} ({reason})\n"
        ));
    }
    out.push('\n');
    out.push_str(&render_breakdown(report));
    if report.counter("step3.anchors") == Some(0) {
        out.push_str(
            "  note: no anchors survived step 2 — step-3 sections are \
             empty, percentages cover steps 1-2 only\n",
        );
    }
    out.push('\n');
    out.push_str(&render_utilization(report));
    for section in [render_step2(report), render_step3(report)] {
        if !section.is_empty() {
            out.push('\n');
            out.push_str(&section);
        }
    }
    if !report.counters.is_empty() {
        out.push_str("\nCounters\n");
        for (k, v) in &report.counters {
            out.push_str(&format!("  {:<36} {:>14}\n", k, v));
        }
    }
    if !report.spans.is_empty() {
        out.push_str("\nSpans\n");
        for s in &report.spans {
            out.push_str(&format!(
                "  {:<36} {:>12} s  ×{}\n",
                s.name,
                fmt_seconds(s.seconds),
                s.count
            ));
        }
    }
    for (name, h) in &report.histograms {
        out.push('\n');
        out.push_str(&render_histogram(name, h, 40));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BoardTelemetry, FpgaTelemetry, SpanReport, StepReport};

    fn report_with_board() -> RunReport {
        let mut r = RunReport::new();
        r.meta.push(("backend".into(), "rasc".into()));
        r.steps = vec![
            StepReport {
                name: "step1".into(),
                wall_seconds: 1.0,
                accelerated_seconds: None,
            },
            StepReport {
                name: "step2".into(),
                wall_seconds: 8.0,
                accelerated_seconds: Some(1.0),
            },
        ];
        r.counters.push(("step2.pairs".into(), 1000));
        let mut h = Histogram::default();
        for v in [1, 2, 2, 9] {
            h.observe(v);
        }
        r.histograms.push(("step2.pairs_per_key".into(), h));
        r.board = Some(BoardTelemetry {
            pe_count: 192,
            fpga: vec![FpgaTelemetry {
                cycles: 1000,
                stall_cycles: 100,
                busy_pe_cycles: 96_000,
                fifo_peak: 17,
                utilization: 0.5,
            }],
            bytes_in: 4096,
            bytes_out: 64,
            wire_in_seconds: 1.28e-6,
            wire_out_seconds: 2.0e-8,
            sync_seconds: 1e-4,
            setup_seconds: 0.8,
            accelerated_seconds: 1.0,
            overlap_seconds: 0.25,
            overlap_occupancy: 0.625,
            entries: 10,
            hit_count: 8,
        });
        r
    }

    #[test]
    fn breakdown_shows_percentages() {
        let text = render_breakdown(&report_with_board());
        assert!(text.contains("step1"), "{text}");
        assert!(text.contains("50.00%"), "{text}");
        assert!(text.contains("accelerated"), "{text}");
        assert!(text.contains("total"), "{text}");
    }

    #[test]
    fn utilization_table_covers_fpgas() {
        let text = render_utilization(&report_with_board());
        assert!(text.contains("fifo_peak"), "{text}");
        assert!(text.contains("17"), "{text}");
        assert!(text.contains("10.00%"), "{text}"); // stall share
        assert!(text.contains("50.00%"), "{text}"); // utilization
        assert!(text.contains("4096 B in"), "{text}");
        assert!(text.contains("62.50% occupancy"), "{text}");
        assert!(!text.contains("host kernel"), "{text}");
        let mut r = report_with_board();
        r.meta.push((keys::RASC_HOST_KERNEL.into(), "wide".into()));
        let text = render_utilization(&r);
        assert!(text.contains("simulator host kernel: wide"), "{text}");
    }

    #[test]
    fn software_run_has_no_board_section() {
        let mut r = report_with_board();
        r.board = None;
        let text = render_utilization(&r);
        assert!(text.contains("software backend"), "{text}");
    }

    #[test]
    fn zero_anchor_run_says_so_explicitly() {
        let mut r = report_with_board();
        r.counters.push(("step3.anchors".into(), 0));
        let text = render_report(&r);
        assert!(text.contains("no anchors survived step 2"), "{text}");
        // A run with anchors must not carry the note.
        let mut ok = report_with_board();
        ok.counters.push(("step3.anchors".into(), 17));
        assert!(!render_report(&ok).contains("no anchors survived"));
    }

    #[test]
    fn zero_total_breakdown_omits_percentages() {
        let mut r = report_with_board();
        for s in &mut r.steps {
            s.wall_seconds = 0.0;
            s.accelerated_seconds = None;
        }
        let text = render_breakdown(&r);
        assert!(text.contains("no timed steps"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn histogram_bars_scale() {
        let mut h = Histogram::default();
        for _ in 0..40 {
            h.observe(3);
        }
        h.observe(100);
        let text = render_histogram("pairs", &h, 40);
        assert!(text.contains("2-3"), "{text}");
        assert!(text.contains("64-127"), "{text}");
        // Tallest bucket gets the full width, the singleton a short bar.
        assert!(text.contains(&"#".repeat(40)), "{text}");
        assert!(!text.contains(&"#".repeat(41)), "{text}");
    }

    #[test]
    fn kernel_downgrade_note_renders_only_when_present() {
        let clean = render_report(&report_with_board());
        assert!(!clean.contains("downgraded"), "{clean}");
        let mut r = report_with_board();
        r.meta.push(("step2.kernel".into(), "profile".into()));
        r.meta
            .push(("step2.kernel.requested".into(), "wide".into()));
        r.meta.push((
            "step2.kernel.downgrade".into(),
            "window overflows the i16 lane accumulator".into(),
        ));
        let text = render_report(&r);
        assert!(
            text.contains(
                "note: step-2 kernel downgraded wide -> profile \
                 (window overflows the i16 lane accumulator)"
            ),
            "{text}"
        );
    }

    #[test]
    fn step2_section_puts_gathered_bytes_next_to_pairs() {
        // Reports without the gather counter render no section.
        let old = render_report(&report_with_board());
        assert!(!old.contains("window bytes gathered"), "{old}");
        let mut r = report_with_board();
        r.counters.push(("step2.active_keys".into(), 4));
        r.counters.push(("step2.gather_bytes".into(), 730 * 60));
        let text = render_report(&r);
        assert!(
            text.contains("1000 pairs over 4 active keys, 43800 window bytes gathered\n"),
            "{text}"
        );
        // With the window length known, bytes become windows per pair.
        r.meta.push(("window_len".into(), "60".into()));
        let text = render_report(&r);
        assert!(text.contains("(0.730 windows per pair)"), "{text}");
    }

    #[test]
    fn step3_section_prices_the_dp_cell() {
        // No cell counter (an older report), or nothing extended: no
        // section.
        let mut r = report_with_board();
        assert!(!render_report(&r).contains("DP cells"));
        r.counters.push(("step3.anchors".into(), 0));
        r.counters.push(("step3.dp_cells".into(), 0));
        assert!(!render_report(&r).contains("DP cells"));
        r.counters.retain(|(k, _)| k != "step3.anchors");
        r.counters.push(("step3.anchors".into(), 40));
        r.counters.retain(|(k, _)| k != "step3.dp_cells");
        r.counters.push(("step3.dp_cells".into(), 200_000));
        // Stripped of its wall clock the report still says how much
        // work there was; with it, what a cell cost.
        let text = render_report(&r);
        assert!(
            text.contains("200000 DP cells over 40 anchors (5000 cells per anchor)\n"),
            "{text}"
        );
        r.spans.push(SpanReport {
            name: "step3.extension".into(),
            seconds: 0.0015,
            count: 1,
        });
        let text = render_report(&r);
        assert!(
            text.contains("(5000 cells per anchor, 7.50 ns per cell)\n"),
            "{text}"
        );
    }

    #[test]
    fn full_report_renders_all_sections() {
        let text = render_report(&report_with_board());
        for needle in [
            "schema v2",
            "backend = rasc",
            "Step time breakdown",
            "Simulated RASC board",
            "Counters",
            "step2.pairs_per_key",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
