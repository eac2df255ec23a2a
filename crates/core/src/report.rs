//! Assemble a [`RunReport`] from a pipeline run.
//!
//! `psc-telemetry` stays dependency-free, so the glue that knows about
//! [`PipelineOutput`], [`PipelineConfig`] and the board report lives
//! here: step timings come from the profile, generic counters/spans/
//! histograms from the recorder snapshot, and the per-FPGA section from
//! the RASC board report (with utilization precomputed through the
//! shared [`psc_rasc::pe_utilization`] helper).

use psc_telemetry::{BoardTelemetry, FpgaTelemetry, RunReport, Snapshot, StepReport};

use crate::config::{PipelineConfig, Step2Backend};
use crate::pipeline::PipelineOutput;

/// PEs per FPGA the configured step-2 backend instantiates (0 for the
/// pure-software backends).
fn configured_pe_count(config: &PipelineConfig) -> u64 {
    match config.backend {
        Step2Backend::Rasc { pe_count, .. } => pe_count as u64,
        _ => 0,
    }
}

/// Build the schema-versioned report for one pipeline run.
pub fn build_run_report(
    output: &PipelineOutput,
    config: &PipelineConfig,
    snapshot: &Snapshot,
) -> RunReport {
    let mut report = RunReport::new();
    report.steps = output
        .profile
        .rows()
        .iter()
        .map(|&(name, wall_seconds, accelerated_seconds)| StepReport {
            name: name.to_string(),
            wall_seconds,
            accelerated_seconds,
        })
        .collect();
    report.absorb_snapshot(snapshot);

    if let Some(board) = &output.board {
        let pe_count = configured_pe_count(config);
        let fpga = board
            .fpga_cycles
            .iter()
            .enumerate()
            .map(|(f, &cycles)| FpgaTelemetry {
                cycles,
                stall_cycles: board.stall_cycles[f],
                busy_pe_cycles: board.busy_pe_cycles[f],
                fifo_peak: board.fifo_peak[f],
                utilization: psc_rasc::pe_utilization(
                    board.busy_pe_cycles[f],
                    cycles,
                    pe_count as usize,
                ),
            })
            .collect();
        report.board = Some(BoardTelemetry {
            pe_count,
            fpga,
            bytes_in: board.bytes_in,
            bytes_out: board.bytes_out,
            wire_in_seconds: board.wire_in_seconds,
            wire_out_seconds: board.wire_out_seconds,
            sync_seconds: board.sync_seconds,
            setup_seconds: board.setup_seconds,
            accelerated_seconds: board.accelerated_seconds,
            overlap_seconds: board.overlap_seconds,
            overlap_occupancy: board.overlap_occupancy,
            entries: board.entries,
            hit_count: board.hit_count,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compare_banks;
    use psc_score::blosum62;
    use psc_seqio::{Bank, Seq};
    use psc_telemetry::MemRecorder;

    fn banks() -> (Bank, Bank) {
        let seqs: Vec<Vec<u8>> = (0..8)
            .map(|i| {
                (0..140u32)
                    .map(|j| (((i * 13 + j * 11) % 89) % 20) as u8)
                    .collect()
            })
            .collect();
        let bank: Bank = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| Seq::from_codes(format!("s{i}"), s.clone(), psc_seqio::SeqKind::Protein))
            .collect();
        (bank.clone(), bank)
    }

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            n_ctx: 8,
            threshold: 22,
            max_evalue: 10.0,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn software_run_builds_full_report() {
        let (b0, b1) = banks();
        let cfg = small_config();
        let rec = MemRecorder::new();
        let out = compare_banks(cfg.clone(), &b0, &b1, &rec);
        let report = build_run_report(&out, &cfg, &rec.snapshot());

        assert_eq!(report.steps.len(), 3);
        assert!(report.board.is_none());
        assert_eq!(report.counter("step2.pairs"), Some(out.stats.step2.pairs));
        assert_eq!(
            report.counter("step2.candidates_kept"),
            Some(out.stats.step2.candidates)
        );
        assert_eq!(report.counter("step3.anchors"), Some(out.stats.anchors));
        // Every anchor's extension evaluates at least its first cell.
        let cells = report.counter("step3.dp_cells").expect("cell counter");
        assert!(cells >= out.stats.anchors && out.stats.anchors > 0);
        assert_eq!(report.meta_value("backend"), Some("software-scalar"));
        let h = report.histogram("step2.pairs_per_key").expect("histogram");
        assert_eq!(h.count, out.stats.step2.active_keys);
        assert_eq!(h.sum, out.stats.step2.pairs);
        // The banks are identical, so every indexed position is in an
        // active key on both sides and its window is gathered twice.
        let positions = report
            .counter("step1.positions_indexed.bank0")
            .expect("positions");
        assert_eq!(
            report.counter("step2.gather_bytes"),
            Some(2 * positions * cfg.window_len() as u64)
        );
        // Round-trips through JSON.
        let back = RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn rasc_run_reports_per_fpga_details() {
        let (b0, b1) = banks();
        let cfg = PipelineConfig {
            backend: Step2Backend::Rasc {
                pe_count: 64,
                fpga_count: 2,
                host_threads: 1,
            },
            ..small_config()
        };
        let rec = MemRecorder::new();
        let out = compare_banks(cfg.clone(), &b0, &b1, &rec);
        let report = build_run_report(&out, &cfg, &rec.snapshot());

        let board = report.board.as_ref().expect("board section");
        assert_eq!(board.pe_count, 64);
        assert_eq!(board.fpga.len(), 2);
        assert!(board.fpga[0].cycles > 0);
        assert!(board.fpga[0].utilization > 0.0);
        assert!(board.bytes_in > 0);
        assert!(board.wire_in_seconds > 0.0);
        assert!(board.overlap_seconds > 0.0);
        assert!(board.overlap_occupancy > 0.0 && board.overlap_occupancy <= 1.0);
        assert_eq!(report.meta_value("backend"), Some("rasc"));
        // The simulator's host kernel travels with the report; the
        // software step-2 kernel keys stay absent on a pure-board run.
        let host_kernel =
            psc_rasc::FunctionalOperator::host_kernel(&cfg.operator_config(64), blosum62());
        assert_eq!(
            report.meta_value("rasc.host_kernel"),
            Some(host_kernel.name())
        );
        assert_eq!(report.meta_value("step2.kernel"), None);
        assert_eq!(
            report.step("step2").unwrap().accelerated_seconds,
            Some(board.accelerated_seconds)
        );
        let back = RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(report, back);
    }
}
