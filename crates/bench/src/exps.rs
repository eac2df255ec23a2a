//! The table/figure generators. Each prints the reproduction of one
//! paper artefact, with the paper's own numbers alongside for shape
//! comparison. [`EXPERIMENTS`] is the one table of what exists.

use psc_align::{ungapped_score, Kernel};
use psc_blast::{tblastn, BlastConfig};
use psc_core::{PipelineConfig, Step2Backend};
use psc_datagen::family::FamilyConfig;
use psc_quality::{build_benchmark, evaluate_ranked, BenchmarkConfig, QualityScores, RankedHit};
use psc_score::blosum62;
use psc_seqio::{translate_six_frames, Frame, FrameCoord, GeneticCode};

use crate::data::Workload;
use crate::ladder::{experiment_config, search, Components, LadderRow};
use crate::report::{ratio, secs, Table};

/// What an experiment may read: the workload, the ladder rows its
/// [`Experiment::needs`] asked for, and the scale flag.
#[derive(Debug)]
pub struct Inputs<'a> {
    pub workload: &'a Workload,
    pub rows: &'a [LadderRow],
    pub quick: bool,
}

/// One runnable experiment of the `experiments` binary.
#[derive(Debug)]
pub struct Experiment {
    pub name: &'static str,
    /// Ladder measurements the experiment reads from [`Inputs::rows`].
    pub needs: Components,
    pub run: fn(&Inputs<'_>),
}

const NONE: Components = Components::NONE;
const RASC: Components = Components { rasc: true, ..NONE };

/// Declares [`EXPERIMENTS`] and writes its documentation from the same
/// names, so the list a reader sees cannot drift from what dispatches.
macro_rules! experiments {
    ($($name:literal, $needs:expr, $run:expr;)*) => {
        /// Every experiment the binary runs, in run order (`all` = the
        /// whole table):
        $(#[doc = concat!("`", $name, "`")])*
        pub const EXPERIMENTS: &[Experiment] = &[
            $(Experiment { name: $name, needs: $needs, run: $run }),*
        ];
    };
}

experiments! {
    "table1", NONE, |i| table1(i.workload);
    "table2", Components { baseline: true, ..RASC }, |i| table2(i.rows);
    "table3", Components { dual: true, ..RASC }, |i| table3(i.rows);
    "table4", Components { scalar: true, ..RASC }, |i| table4(i.rows);
    "table5", RASC, |i| table5(i.rows, i.workload);
    "table6", NONE, |i| table6(i.quick);
    "table7", RASC, |i| table7(i.rows);
    "fig1", NONE, |i| fig1(i.workload);
    "fig2", NONE, |_| fig2();
    "fig3", RASC, |i| fig3(i.rows);
}

/// The experiments `wants` names, in table order; `all` is the whole
/// table. `Err` carries the first name that is not in the table.
pub fn select<'a>(wants: &[&'a str]) -> Result<Vec<&'static Experiment>, &'a str> {
    let known = |w: &str| w == "all" || EXPERIMENTS.iter().any(|e| e.name == w);
    if let Some(unknown) = wants.iter().find(|w| !known(w)) {
        return Err(unknown);
    }
    let all = wants.contains(&"all");
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| all || wants.contains(&e.name))
        .collect())
}

/// Table 1 — % of time per step, sequential software, largest bank.
pub fn table1(workload: &Workload) {
    println!("## Table 1 — % time per step (sequential software, largest bank)");
    println!("   paper: step1 0.3%   step2 97%   step3 2.7%\n");
    // Pin the plain scalar kernel: this table is the paper's sequential
    // software profile, which the SIMD batch engine would flatten.
    let cfg = PipelineConfig {
        step2_kernel: psc_core::KernelChoice::Scalar,
        ..experiment_config()
    };
    let r = search(&workload.banks[3], &workload.genome.genome, cfg);
    let (p1, p2, p3) = r.output.profile.percentages();
    let mut t = Table::new(&["", "step 1", "step 2", "step 3"]);
    t.row(vec![
        "paper".into(),
        "0.3 %".into(),
        "97 %".into(),
        "2.7 %".into(),
    ]);
    t.row(vec![
        "measured".into(),
        format!("{p1:.1} %"),
        format!("{p2:.1} %"),
        format!("{p3:.1} %"),
    ]);
    t.print();
    println!();
}

/// Table 2 — overall time and speedup vs the baseline, per bank size and
/// PE-array size.
pub fn table2(rows: &[LadderRow]) {
    println!("## Table 2 — overall performance, baseline vs RASC (seconds)");
    println!("   paper speedups: 1K 4.7–5.4×, 3K 8.1–11.2×, 10K 10.8–16.6×, 30K 11.8–19.3×\n");
    let mut t = Table::new(&[
        "bank",
        "tblastn",
        "RASC 64 PE",
        "Speedup",
        "RASC 128 PE",
        "Speedup",
        "RASC 192 PE",
        "Speedup",
    ]);
    for row in rows {
        let base = row.baseline.expect("table2 needs the baseline");
        let mut cells = vec![row.label.clone(), secs(base)];
        for run in &row.rasc {
            let total = run.profile.total();
            cells.push(secs(total));
            cells.push(ratio(base / total));
        }
        t.row(cells);
    }
    t.print();
    println!();
}

/// Table 3 — one vs two FPGAs at 192 PEs (raised threshold).
pub fn table3(rows: &[LadderRow]) {
    println!("## Table 3 — 1 vs 2 FPGAs, 192 PEs, raised threshold (simulated step-2 seconds)");
    println!("   paper speedups: 1.14 / 1.27 / 1.54 / 1.80");
    println!("   measured: host seconds of steps 1 + 3, 1 FPGA / 2 FPGAs\n");
    let mut t = Table::new(&["bank", "1 FPGA", "2 FPGAs", "Speedup", "paper", "measured"]);
    let paper = [1.14, 1.27, 1.54, 1.80];
    for (row, paper_speedup) in rows.iter().zip(paper) {
        let (one, two) = row.dual.as_ref().expect("table3 needs dual runs");
        let (t1, t2) = (one.board.accelerated_seconds, two.board.accelerated_seconds);
        let host = |p: &psc_core::StepProfile| secs(p.step1 + p.step3);
        t.row(vec![
            row.label.clone(),
            secs(t1),
            secs(t2),
            ratio(t1 / t2),
            ratio(paper_speedup),
            format!("{} / {}", host(&one.profile), host(&two.profile)),
        ]);
    }
    t.print();
    println!();
}

/// Table 4 — step 2 only: sequential software vs each array size.
pub fn table4(rows: &[LadderRow]) {
    println!("## Table 4 — step 2 only, sequential vs RASC (seconds)");
    println!("   paper speedups: 1K 10.8–14.0×, 3K 16.4–34.0×, 10K 18.1–48.4×, 30K 18.7–53.5×\n");
    let mut t = Table::new(&[
        "bank",
        "Sequential",
        "RASC 64 PE",
        "Speedup",
        "RASC 128 PE",
        "Speedup",
        "RASC 192 PE",
        "Speedup",
    ]);
    for row in rows {
        let seq = row.scalar.expect("table4 needs scalar run").step2_wall;
        let mut cells = vec![row.label.clone(), secs(seq)];
        for run in &row.rasc {
            let accel = run
                .profile
                .step2_accelerated
                .expect("RASC runs report accelerated time");
            cells.push(secs(accel));
            cells.push(ratio(seq / accel));
        }
        t.row(cells);
    }
    t.print();
    println!();
}

/// Table 5 — throughput in Kaa×Mnt/s across implementations.
pub fn table5(rows: &[LadderRow], workload: &Workload) {
    println!("## Table 5 — throughput (Kilo amino acids × Mega nucleotides / second)");
    println!("   paper: DeCypher 182, CLC 2, FLASH/FPGA 451, Systolic 863, ½ RASC-100 620\n");
    // The paper's RASC number uses the largest bank on one FPGA (half
    // the board) at 192 PEs.
    let top = rows.last().expect("ladder rows");
    let run = top
        .rasc
        .iter()
        .find(|r| r.pe_count == 192)
        .expect("192-PE run");
    let ours = top.kaa * workload.genome_mnt() / run.profile.total();
    let mut t = Table::new(&["implementation", "KaaMnt/s"]);
    t.row(vec!["DeCypher (paper)".into(), "182".into()]);
    t.row(vec!["CLC (paper)".into(), "2".into()]);
    t.row(vec!["FLASH/FPGA (paper)".into(), "451".into()]);
    t.row(vec!["Systolic peak (paper)".into(), "863".into()]);
    t.row(vec!["1/2 RASC-100 (paper)".into(), "620".into()]);
    t.row(vec![
        "1/2 RASC-100 (this reproduction)".into(),
        format!("{ours:.0}"),
    ]);
    t.print();
    println!("\n   (absolute throughput scales with workload size; the paper's point is the");
    println!("    ranking of the seed-based FPGA designs over sensitive/systolic ones)\n");
}

/// Table 6 — ROC50 and AP-Mean, pipeline vs baseline.
pub fn table6(quick: bool) {
    println!("## Table 6 — sensitivity/selectivity (ROC50, AP-Mean)");
    println!("   paper: FPGA-RASC 0.468 / 0.447   NCBI-BLAST 0.479 / 0.441\n");
    let families = if quick { 24 } else { 102 };
    // The paper's benchmark (102 queries vs yeast, SCOP-style families)
    // sits near the twilight zone — scores of ~0.45, not ~1.0. The
    // synthetic families are pushed to the same regime: 62 % divergence
    // (≈ 35-40 % identity) with indels, where seed-based detection
    // genuinely misses members and rankings differ.
    let bench = build_benchmark(&BenchmarkConfig {
        families: FamilyConfig {
            family_count: families,
            members_per_family: 5,
            min_len: 120,
            max_len: 300,
            mutation: psc_datagen::MutationConfig {
                divergence: 0.62,
                indel_rate: 0.02,
                indel_extend: 0.4,
            },
            ..FamilyConfig::default()
        },
        genome_slack: 3.0,
        seed: 0x6a11,
    });
    eprintln!(
        "[table6] benchmark: {families} families, genome {} nt",
        bench.genome.len()
    );

    // Pipeline (the "FPGA-RASC" row — identical results to the RASC
    // backend by the backend-equivalence tests; run on software for
    // speed).
    eprintln!("[table6] pipeline…");
    let pipeline_scores = {
        let r = search(&bench.queries, &bench.genome, PipelineConfig::default());
        let hits: Vec<RankedHit> = r
            .matches
            .iter()
            .map(|m| RankedHit {
                query: m.protein_idx,
                score: m.bit_score,
                start: m.genome_start,
                end: m.genome_end,
            })
            .collect();
        evaluate_ranked(&bench, &hits)
    };

    eprintln!("[table6] baseline…");
    let blast_scores = {
        let translated = translate_six_frames(&bench.genome, GeneticCode::standard());
        let frames = translated.to_bank();
        let rep = tblastn(&bench.queries, &frames, blosum62(), &BlastConfig::default());
        let hits: Vec<RankedHit> = rep
            .hsps
            .iter()
            .map(|h| {
                let frame = Frame::ALL[h.seq1 as usize];
                let (s, e, _) = translated.to_genome_interval(
                    FrameCoord {
                        frame,
                        aa_pos: h.start1 as usize,
                    },
                    (h.end1 - h.start1) as usize,
                );
                RankedHit {
                    query: h.seq0 as usize,
                    score: h.bit_score,
                    start: s,
                    end: e,
                }
            })
            .collect();
        evaluate_ranked(&bench, &hits)
    };

    print_table6(pipeline_scores, blast_scores);
}

fn print_table6(pipeline: QualityScores, blast: QualityScores) {
    let mut t = Table::new(&["", "FPGA-RASC", "NCBI-BLAST"]);
    t.row(vec![
        "ROC50".into(),
        format!("{:.3}", pipeline.roc50),
        format!("{:.3}", blast.roc50),
    ]);
    t.row(vec![
        "AP-Mean".into(),
        format!("{:.3}", pipeline.ap_mean),
        format!("{:.3}", blast.ap_mean),
    ]);
    t.print();
    println!();
}

/// Table 7 — % time per step on the RASC (192 PEs) per bank size.
pub fn table7(rows: &[LadderRow]) {
    println!("## Table 7 — % time per step, RASC 192 PEs");
    println!("   paper: step1 43/31/14/6  step2 38/35/35/37  step3 19/34/51/57\n");
    let mut t = Table::new(&["bank", "step 1", "step 2", "step 3"]);
    for row in rows {
        let run = row
            .rasc
            .iter()
            .find(|r| r.pe_count == 192)
            .expect("192-PE run");
        let (p1, p2, p3) = run.profile.percentages();
        t.row(vec![
            row.label.clone(),
            format!("{p1:.0} %"),
            format!("{p2:.0} %"),
            format!("{p3:.0} %"),
        ]);
    }
    t.print();
    println!();
}

/// Figure 1 equivalent — the slotted-pipeline design space: slot size vs
/// cycle overhead and achievable clock.
///
/// The paper's architectural argument for slots + register barriers is
/// that short broadcast paths keep the clock at 100 MHz while costing a
/// little latency. Cycle overhead comes from the simulator; the
/// achievable clock uses a simple fan-out model calibrated to the
/// paper's 16-PE slots at 100 MHz: `f(s) = 133 MHz / (1 + s/64)`.
pub fn fig1(workload: &Workload) {
    println!("## Figure 1 equivalent — slot size trade-off (192 PEs, 10× bank)");
    println!("   paper: 16-PE slots with register barriers reach 100 MHz\n");
    let mut t = Table::new(&[
        "slot size",
        "slots",
        "cycles",
        "model fmax (MHz)",
        "step-2 time (s)",
        "slices %",
    ]);
    let mut best: Option<(usize, f64)> = None;
    for slot_size in [2usize, 4, 8, 16, 32, 64, 192] {
        let mut cfg = experiment_config();
        cfg.slot_size = slot_size;
        cfg.backend = Step2Backend::Rasc {
            pe_count: 192,
            fpga_count: 1,
            host_threads: 1,
        };
        let mut op_cfg = cfg.operator_config(192);
        op_cfg.slot_size = slot_size;
        let util = psc_rasc::ResourceModel::estimate(&op_cfg);
        let r = search(&workload.banks[2], &workload.genome.genome, cfg);
        let board = r.output.board.unwrap();
        let cycles = board.fpga_cycles[0];
        let fmax = 133.0e6 / (1.0 + slot_size as f64 / 64.0);
        let time = cycles as f64 / fmax;
        if best.map(|(_, t)| time < t).unwrap_or(true) {
            best = Some((slot_size, time));
        }
        t.row(vec![
            slot_size.to_string(),
            (192usize.div_ceil(slot_size)).to_string(),
            cycles.to_string(),
            format!("{:.0}", fmax / 1e6),
            secs(time),
            util.slice_pct.to_string(),
        ]);
    }
    t.print();
    let (s, _) = best.unwrap();
    println!("\n   fastest under the clock model: slot size {s}; the paper chose 16,");
    println!("   balancing clock against the per-slot barrier/FIFO slice cost —");
    println!("   the latency penalty between 2 and 16 is <0.2% of cycles either way\n");
}

/// Figure 2 equivalent — the PE datapath: bit-equivalence with the
/// software kernel and the cycles-per-window cost.
pub fn fig2() {
    use psc_rasc::{OperatorConfig, PscOperator};
    use psc_seqio::prng::SplitMix64;

    println!("## Figure 2 equivalent — PE datapath verification and cost");
    println!("   (one residue pair per clock; window of W+2N cycles per comparison)\n");
    let mut rng = SplitMix64::new(0xfe);
    let mut t = Table::new(&[
        "window (W+2N)",
        "cycles/comparison",
        "comparisons/s @100MHz",
        "hw ≡ sw",
    ]);
    for window in [20usize, 40, 60, 80, 120] {
        let mut cfg = OperatorConfig::new(1);
        cfg.window_len = window;
        cfg.slot_size = 1;
        cfg.threshold = 1;
        let mut op = PscOperator::new(cfg, blosum62()).unwrap();
        // Verify equivalence on random windows.
        let mut all_equal = true;
        for _ in 0..200 {
            let w0: Vec<u8> = (0..window).map(|_| rng.range(0..20u8)).collect();
            let w1: Vec<u8> = (0..window).map(|_| rng.range(0..20u8)).collect();
            let r = op.run_entry(&w0, &w1);
            let sw = ungapped_score(Kernel::ClampedSum, blosum62(), &w0, &w1);
            let hw = r.hits.first().map(|h| h.score).unwrap_or(0);
            if hw != sw.max(0) && !(sw < 1 && r.hits.is_empty()) {
                all_equal = false;
            }
        }
        t.row(vec![
            window.to_string(),
            window.to_string(),
            format!("{:.1e}", 100.0e6 / window as f64),
            if all_equal { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();
    println!("\n   (192 PEs × 100 MHz / 60-cycle windows = 3.2e8 comparisons/s peak)\n");
}

/// Figure 3 equivalent — board integration occupancy: where the
/// accelerated seconds go (compute vs DMA vs sync vs setup).
pub fn fig3(rows: &[LadderRow]) {
    println!("## Figure 3 equivalent — accelerated-section breakdown (192 PEs, 1 FPGA)");
    println!("   (RASC-100 integration: NUMAlink DMA streams overlap compute; results,");
    println!("    sync and setup serialize — paper Fig. 3's SGI-core data paths)\n");
    let mut t = Table::new(&[
        "bank",
        "compute (s)",
        "input wire (s)",
        "output wire (s)",
        "overlapped (s)",
        "occupancy",
        "sync (s)",
        "setup (s)",
        "total (s)",
        "PE util",
    ]);
    for row in rows {
        let run = row
            .rasc
            .iter()
            .find(|r| r.pe_count == 192)
            .expect("192-PE run");
        let b = &run.board;
        let clock = 1.0e8;
        let compute = b.fpga_cycles[0] as f64 / clock;
        let wire_in = b.bytes_in as f64 / psc_rasc::NUMALINK_BANDWIDTH;
        let wire_out = b.bytes_out as f64 / psc_rasc::NUMALINK_BANDWIDTH;
        t.row(vec![
            row.label.clone(),
            secs(compute),
            format!("{wire_in:.4}"),
            format!("{wire_out:.4}"),
            format!("{:.4}", b.overlap_seconds),
            format!("{:.1} %", b.overlap_occupancy * 100.0),
            format!("{:.4}", b.sync_seconds),
            format!("{:.3}", b.setup_seconds),
            secs(b.accelerated_seconds),
            format!("{:.1} %", b.utilization(192) * 100.0),
        ]);
    }
    t.print();
    println!("   (overlapped = DMA-in of entry k+1 hidden under compute of entry k by the");
    println!("    double-buffered dispatch; occupancy = overlapped share of the busy span)\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_dispatches_and_removed_names_are_rejected() {
        for e in EXPERIMENTS {
            let picked = select(&[e.name]).expect(e.name);
            assert_eq!(picked.len(), 1, "{} listed twice", e.name);
            assert_eq!(picked[0].name, e.name);
        }
        assert_eq!(select(&["all"]).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(select(&["fig2", "table1"]).unwrap()[0].name, "table1");
        for removed in [
            "step2-kernels",
            "step2-balance",
            "step3-threads",
            "serve-amortize",
            "trace-overhead",
            "fleet-scaling",
            "analyzer-bench",
            "ablation-hybrid",
            "extension-step3",
            "ablation-kernel",
            "ablation-seed",
            "ablation-twohit",
            "ablation-masking",
        ] {
            assert_eq!(select(&["table1", removed]).err(), Some(removed));
        }
    }
}
