//! The table/figure generators. Each prints the reproduction of one
//! paper artefact, with the paper's own numbers alongside for shape
//! comparison.

use std::time::Instant;

use psc_align::{ungapped_score, Kernel};
use psc_blast::{tblastn, BlastConfig};
use psc_core::{search_genome, PipelineConfig, SeedChoice, Step2Backend};
use psc_datagen::family::FamilyConfig;
use psc_quality::{build_benchmark, evaluate_ranked, BenchmarkConfig, QualityScores, RankedHit};
use psc_score::blosum62;
use psc_seqio::{translate_six_frames, Frame, FrameCoord, GeneticCode};

use crate::data::Workload;
#[allow(unused_imports)]
use crate::ladder::{experiment_config, LadderRow};
use crate::report::{ratio, secs, Table};

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
    let r = search_genome(&workload.banks[3], &workload.genome.genome, blosum62(), cfg);
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
        let base = row
            .baseline
            .expect("table2 needs the baseline")
            .total_seconds;
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
    println!("## Table 3 — 1 vs 2 FPGAs, 192 PEs, raised threshold (seconds)");
    println!("   paper speedups: 1.14 / 1.27 / 1.54 / 1.80\n");
    let mut t = Table::new(&["bank", "1 FPGA", "2 FPGAs", "Speedup", "paper"]);
    let paper = [1.14, 1.27, 1.54, 1.80];
    for (row, paper_speedup) in rows.iter().zip(paper) {
        let (one, two) = row.dual.as_ref().expect("table3 needs dual runs");
        let t1 = one.profile.total();
        let t2 = two.profile.total();
        t.row(vec![
            row.label.clone(),
            secs(t1),
            secs(t2),
            ratio(t1 / t2),
            ratio(paper_speedup),
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
        let seq = row
            .scalar
            .as_ref()
            .expect("table4 needs scalar run")
            .0
            .step2_wall;
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
        let r = search_genome(
            &bench.queries,
            &bench.genome,
            blosum62(),
            PipelineConfig::default(),
        );
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
        let r = search_genome(&workload.banks[2], &workload.genome.genome, blosum62(), cfg);
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

/// Ablation — the two readings of the paper's ungapped pseudocode.
pub fn ablation_kernel(workload: &Workload) {
    println!("## Ablation — ungapped kernel variant (10× bank)");
    println!("   (the paper's pseudocode literally accumulates positive scores only;");
    println!("    the PE datapath description matches the clamped 1-D Smith-Waterman)\n");
    let mut t = Table::new(&[
        "kernel",
        "candidates",
        "anchors",
        "alignments",
        "plants recovered",
        "step2 (s)",
    ]);
    for (kernel, label) in [
        (Kernel::ClampedSum, "ClampedSum (default)"),
        (Kernel::PaperLiteral, "PaperLiteral"),
    ] {
        let mut cfg = experiment_config();
        cfg.kernel = kernel;
        let r = search_genome(&workload.banks[2], &workload.genome.genome, blosum62(), cfg);
        let recovered = workload
            .genome
            .plants
            .iter()
            .filter(|p| {
                r.matches.iter().any(|m| {
                    m.protein_idx == p.protein_idx
                        && m.genome_start < p.end
                        && p.start < m.genome_end
                })
            })
            .count();
        t.row(vec![
            label.into(),
            r.output.stats.step2.candidates.to_string(),
            r.output.stats.anchors.to_string(),
            r.output.hsps.len().to_string(),
            format!("{recovered}/{}", workload.genome.plants.len()),
            secs(r.output.profile.step2_wall),
        ]);
    }
    t.print();
    println!();
}

/// Ablation — seed models: index fan-out, work and recall.
pub fn ablation_seed(workload: &Workload) {
    println!("## Ablation — seed model (10× bank)");
    println!("   (the paper chose a span-4 subset seed for indexing efficiency and");
    println!("    BLAST-equivalent sensitivity)\n");
    let mut t = Table::new(&[
        "seed",
        "keys",
        "pairs",
        "candidates",
        "alignments",
        "plants recovered",
        "step2 (s)",
    ]);
    let choices: Vec<(SeedChoice, String)> = vec![
        (
            SeedChoice::Custom(psc_index::subset_seed_span3()),
            "subset span-3 (ladder)".into(),
        ),
        (SeedChoice::SubsetDefault, "subset span-4 (paper)".into()),
        (SeedChoice::Exact(4), "exact 4-mer".into()),
    ];
    for (seed, label) in choices {
        let keys = seed.model().key_count();
        let mut cfg = experiment_config();
        cfg.seed = seed;
        let r = search_genome(&workload.banks[2], &workload.genome.genome, blosum62(), cfg);
        let recovered = workload
            .genome
            .plants
            .iter()
            .filter(|p| {
                r.matches.iter().any(|m| {
                    m.protein_idx == p.protein_idx
                        && m.genome_start < p.end
                        && p.start < m.genome_end
                })
            })
            .count();
        t.row(vec![
            label,
            keys.to_string(),
            r.output.stats.step2.pairs.to_string(),
            r.output.stats.step2.candidates.to_string(),
            r.output.hsps.len().to_string(),
            format!("{recovered}/{}", workload.genome.plants.len()),
            secs(r.output.profile.step2_wall),
        ]);
    }
    t.print();
    println!();
}

/// Extension — the paper's proposed second-FPGA gapped operator
/// (conclusion: "another reconfigurable operator dedicated to the
/// computation of similarities including gap penalty" running
/// concurrently with the PSC operator).
pub fn extension_step3(workload: &Workload) {
    use psc_core::config::Step3Backend;
    println!("## Extension — step-3 gapped operator on the second FPGA (192 PEs, largest bank)");
    println!("   (the paper's conclusion; Table 7 shows step 3 becoming the bottleneck.");
    println!("    To land in that regime at our scale, this run lowers the ungapped");
    println!("    threshold by 8, multiplying the gapped-extension load)\n");
    let mut cfg = experiment_config();
    cfg.threshold -= 8;
    cfg.backend = Step2Backend::Rasc {
        pe_count: 192,
        fpga_count: 1,
        host_threads: 1,
    };
    cfg.step3_backend = Step3Backend::RascGapped { band: 128 };
    let r = search_genome(&workload.banks[3], &workload.genome.genome, blosum62(), cfg);
    let p = &r.output.profile;
    let mut t = Table::new(&["deployment", "step 1", "step 2", "step 3", "total (s)"]);
    t.row(vec![
        "PSC op + host step 3".into(),
        secs(p.step1),
        secs(p.step2()),
        secs(p.step3),
        secs(p.step1 + p.step2() + p.step3),
    ]);
    t.row(vec![
        "PSC op + gapped op (sequential)".into(),
        secs(p.step1),
        secs(p.step2()),
        secs(p.step3()),
        secs(p.total()),
    ]);
    t.row(vec![
        "PSC op + gapped op (both FPGAs, concurrent)".into(),
        secs(p.step1),
        secs(p.step2().max(p.step3())),
        "-".into(),
        secs(p.total_concurrent()),
    ]);
    t.print();
    println!(
        "\n   gapped operator simulated time: {:.4} s for {} anchors\n",
        p.step3_accelerated.unwrap_or(0.0),
        r.output.stats.anchors
    );
}

/// Extension — sharded parallel step-3 gapped extension. Run under a
/// heavy-tailed fault plan (the hardest case for determinism), software
/// step 3 against the proposed gapped operator, written to
/// `BENCH_step3_threads.json`.
pub fn step3_threads(workload: &Workload) {
    use psc_core::config::Step3Backend;
    println!("## Extension — parallel step-3 (10× bank, 192 PEs)");
    println!("   (threshold lowered by 8 as in extension-step3 to land in the paper's");
    println!("    Table 7 regime where step 3 dominates; seeded heavy-tail faults on)\n");
    let make_cfg = |step3_backend: Step3Backend, step3_threads: usize| {
        let mut cfg = experiment_config();
        cfg.threshold -= 8;
        cfg.backend = Step2Backend::Rasc {
            pe_count: 192,
            fpga_count: 1,
            host_threads: 1,
        };
        cfg.fault_plan = Some(psc_rasc::FaultPlan::SeededHeavyTail {
            seed: 7,
            rate_ppm: psc_rasc::DEFAULT_FAULT_RATE_PPM,
        });
        cfg.step3_backend = step3_backend;
        cfg.step3_threads = step3_threads;
        cfg
    };
    let mut t = Table::new(&[
        "step-3 engine",
        "threads",
        "step3 (s)",
        "modeled N-core (s)",
        "modeled speedup",
        "step2+3 wall (s)",
        "DMA overlap",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    for (engine, label) in [
        (Step3Backend::Software, "software"),
        (Step3Backend::RascGapped { band: 128 }, "gapped-op"),
    ] {
        let mut baseline_hsps: Option<Vec<psc_align::Hsp>> = None;
        let mut seq_extension = 0.0f64;
        let mut seq_modeled_p4 = 0.0f64;
        for threads in [1usize, 4] {
            let cfg = make_cfg(engine.clone(), threads);
            let mut best_step3 = f64::INFINITY;
            let mut best_wall = f64::INFINITY;
            let mut best_extension = f64::INFINITY;
            let mut best_modeled_p4 = f64::INFINITY;
            let mut last = None;
            for _ in 0..3 {
                let rec = psc_core::MemRecorder::new();
                let r = psc_core::try_search_genome_traced(
                    &workload.banks[2],
                    &workload.genome.genome,
                    blosum62(),
                    cfg.clone(),
                    &rec,
                    &psc_core::NullTracer,
                )
                .expect("experiment config is valid");
                let spans = rec.snapshot().spans;
                best_step3 = best_step3.min(r.output.profile.step3);
                best_wall = best_wall.min(r.output.profile.step2_wall + r.output.profile.step3);
                best_extension = best_extension.min(spans["step3.extension"].seconds);
                best_modeled_p4 = best_modeled_p4.min(spans["step3.modeled_p4"].seconds);
                last = Some(r);
            }
            let r = last.unwrap();
            // Parallel step 3 is an optimisation only: any divergence
            // from the sequential run is a bug.
            match &baseline_hsps {
                None => {
                    baseline_hsps = Some(r.output.hsps.clone());
                    // Shard costs from this sequential, uncontended run
                    // drive the modeled columns for every row: a
                    // contended run's shard walls include descheduling,
                    // so replaying *its* costs would double-count the
                    // host's core shortage.
                    seq_extension = best_extension;
                    seq_modeled_p4 = best_modeled_p4;
                }
                Some(base) => assert_eq!(
                    base, &r.output.hsps,
                    "threads={threads} diverged from the sequential run"
                ),
            }
            let board = r.output.board.as_ref().expect("RASC run has a board");
            // Measured wall speedup saturates at the host's free-core
            // count; the modeled column replays the sequential run's
            // per-shard costs through the worker pull schedule on
            // `threads` free cores, which is what the speedup claim is
            // pinned on.
            let best_modeled = if threads == 1 {
                seq_extension
            } else {
                seq_modeled_p4
            };
            let modeled_speedup = seq_extension / best_modeled;
            t.row(vec![
                label.into(),
                threads.to_string(),
                secs(best_step3),
                secs(best_modeled),
                ratio(modeled_speedup),
                secs(best_wall),
                format!("{:.1} %", board.overlap_occupancy * 100.0),
            ]);
            json_rows.push(format!(
                "    {{\"step3_backend\": \"{label}\", \
                 \"step3_threads\": {threads}, \"step3_seconds\": {best_step3:.6}, \
                 \"step3_extension_seconds\": {best_extension:.6}, \
                 \"step3_modeled_parallel_seconds\": {best_modeled:.6}, \
                 \"step3_modeled_speedup\": {modeled_speedup:.3}, \
                 \"step2_plus_step3_seconds\": {best_wall:.6}, \
                 \"overlap_seconds\": {:.6}, \"overlap_occupancy\": {:.4}, \
                 \"anchors\": {}, \"hsps\": {}}}",
                board.overlap_seconds,
                board.overlap_occupancy,
                r.output.stats.anchors,
                r.output.hsps.len(),
            ));
        }
    }
    t.print();
    println!("\n   (modeled = the sequential run's measured per-shard costs replayed");
    println!("    through the worker pull schedule on N free cores; speedup is vs");
    println!("    that run's extension. Outputs are asserted bit-identical across");
    println!("    thread counts; wall columns saturate at this host's free-core count.)\n");
    let json = format!(
        "{{\n  \"experiment\": \"step3_threads\",\n  \
         \"fault_plan\": \"heavy-tail seed 7\",\n  \"runs\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let path = "BENCH_step3_threads.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[experiments] wrote {path}"),
        Err(e) => eprintln!("[experiments] could not write {path}: {e}"),
    }
}

/// Ablation — hybrid CPU+FPGA dispatch (the paper's closing question:
/// "how to dispatch the overall computation between cores and FPGA").
pub fn ablation_hybrid(workload: &Workload) {
    println!("## Ablation — hybrid CPU+FPGA step-2 dispatch (10× bank, 192 PEs)");
    println!("   (step-2 effective time = max(FPGA, CPU); sweep of the FPGA share)\n");
    let mut t = Table::new(&[
        "FPGA share",
        "FPGA (s)",
        "effective step 2 (s)",
        "bound by",
        "candidates",
    ]);
    let mut best: Option<(f64, f64)> = None;
    for share in [0.0f64, 0.25, 0.5, 0.75, 0.9, 1.0] {
        let mut cfg = experiment_config();
        cfg.backend = Step2Backend::Hybrid {
            pe_count: 192,
            cpu_threads: 1,
            fpga_share: share,
        };
        let r = search_genome(&workload.banks[2], &workload.genome.genome, blosum62(), cfg);
        let board = r.output.board.unwrap();
        let effective = r.output.profile.step2_accelerated.unwrap();
        let bound_by = if effective > board.accelerated_seconds + 1e-9 {
            "CPU"
        } else {
            "FPGA"
        };
        if best.map(|(_, b)| effective < b).unwrap_or(true) {
            best = Some((share, effective));
        }
        t.row(vec![
            format!("{share:.2}"),
            format!("{:.3}", board.accelerated_seconds),
            secs(effective),
            bound_by.into(),
            r.output.stats.step2.candidates.to_string(),
        ]);
    }
    t.print();
    let (share, eff) = best.unwrap();
    println!("\n   best dispatch: {share:.2} of the pair mass on the FPGA ({eff:.3} s) —");
    println!("   the optimum sits where CPU and FPGA finish together\n");
}

/// Ablation — soft low-complexity masking on a repeat-laden genome.
pub fn ablation_masking() {
    use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig, MutationConfig};
    println!("## Ablation — SEG-like soft masking (repeat-laden genome, 3× bank)");
    println!("   (low-complexity tracts flood seeding; masking suppresses them");
    println!("    without losing true homology — BLAST's rationale for SEG)\n");
    let proteins = random_bank(&BankConfig {
        count: 150,
        min_len: 100,
        max_len: 400,
        seed: 4242,
    });
    let synth = generate_genome(
        &GenomeConfig {
            len: 120_000,
            gene_count: 30,
            repeat_tracts: 40,
            repeat_len: 600,
            mutation: MutationConfig {
                divergence: 0.25,
                indel_rate: 0.004,
                indel_extend: 0.3,
            },
            seed: 4243,
            ..GenomeConfig::default()
        },
        &proteins,
    );
    let mut t = Table::new(&[
        "masking",
        "pairs",
        "candidates",
        "anchors",
        "alignments",
        "plants recovered",
        "step2 (s)",
    ]);
    for (mask, label) in [
        (None, "off"),
        (Some(psc_seqio::MaskConfig::default()), "on"),
    ] {
        let cfg = PipelineConfig {
            mask,
            ..experiment_config()
        };
        let r = search_genome(&proteins, &synth.genome, blosum62(), cfg);
        let recovered = synth
            .plants
            .iter()
            .filter(|p| {
                r.matches.iter().any(|m| {
                    m.protein_idx == p.protein_idx
                        && m.genome_start < p.end
                        && p.start < m.genome_end
                })
            })
            .count();
        t.row(vec![
            label.into(),
            r.output.stats.step2.pairs.to_string(),
            r.output.stats.step2.candidates.to_string(),
            r.output.stats.anchors.to_string(),
            r.output.hsps.len().to_string(),
            format!("{recovered}/{}", synth.plants.len()),
            secs(r.output.profile.step2_wall),
        ]);
    }
    t.print();
    println!();
}

/// Ablation — one-hit vs two-hit seeding in the baseline.
pub fn ablation_twohit(workload: &Workload) {
    println!("## Ablation — baseline two-hit rule (3× bank)");
    let translated = translate_six_frames(&workload.genome.genome, GeneticCode::standard());
    let frames = translated.to_bank();
    let mut t = Table::new(&[
        "mode",
        "word hits",
        "ungapped ext.",
        "gapped ext.",
        "HSPs",
        "scan (s)",
    ]);
    for (one_hit, label) in [(false, "two-hit (NCBI)"), (true, "one-hit")] {
        let t0 = Instant::now();
        let rep = tblastn(
            &workload.banks[1],
            &frames,
            blosum62(),
            &BlastConfig {
                one_hit,
                ..BlastConfig::default()
            },
        );
        let _ = t0;
        t.row(vec![
            label.into(),
            rep.word_hits.to_string(),
            rep.ungapped_extensions.to_string(),
            rep.gapped_extensions.to_string(),
            rep.hsps.len().to_string(),
            secs(rep.scan_seconds),
        ]);
    }
    t.print();
    println!();
}

/// Step-2 software kernel shoot-out — scalar vs profile vs SIMD on the
/// same indexed workload, written to `BENCH_step2_kernels.json`.
///
/// The software analogue of the paper's Table 4 question ("how fast can
/// step 2 go?"), answered on the host CPU instead of the PE array. All
/// backends must produce identical candidate sets; this asserts it.
pub fn step2_kernels(workload: &Workload) {
    use psc_core::step2::{run_software, Step2Params, Step2Schedule};
    use psc_core::KernelChoice;
    use psc_index::{subset_seed_span3, FlatBank, SeedIndex};

    println!("## Step-2 software kernels — pairs/second per backend");
    let frames = translate_six_frames(&workload.genome.genome, GeneticCode::standard()).to_bank();
    let f0 = FlatBank::from_bank(&workload.banks[1]);
    let f1 = FlatBank::from_bank(&frames);
    let model = subset_seed_span3();
    let i0 = SeedIndex::build(&f0, &model, 1);
    let i1 = SeedIndex::build(&f1, &model, 1);
    let pairs = i0.pair_count(&i1);

    let mut t = Table::new(&["backend", "seconds", "pairs/s", "vs scalar"]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut scalar_secs = 0.0f64;
    let mut baseline: Option<Vec<psc_core::step2::Candidate>> = None;
    let mut seen: Vec<&str> = Vec::new();
    let mut window_len = 0usize;
    for choice in [
        KernelChoice::Scalar,
        KernelChoice::Profile,
        KernelChoice::Simd,
    ] {
        let params = Step2Params {
            matrix: blosum62(),
            kernel: Kernel::ClampedSum,
            span: 3,
            n_ctx: 28,
            threshold: 45,
            kernel_backend: choice,
            schedule: Step2Schedule::default(),
        };
        window_len = params.window_len();
        let name = params.resolved_backend().name();
        if seen.contains(&name) {
            // Without AVX2 the Simd choice resolves to Profile.
            continue;
        }
        seen.push(name);
        // Warm-up pass (also the output-equality check), then best of 3.
        let (cands, _) = run_software(&f0, &i0, &f1, &i1, &params, 1);
        match &baseline {
            None => baseline = Some(cands),
            Some(b) => assert_eq!(
                b, &cands,
                "kernel backend {name} diverged from scalar candidates"
            ),
        }
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = run_software(&f0, &i0, &f1, &i1, &params, 1);
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(r);
        }
        if choice == KernelChoice::Scalar {
            scalar_secs = best;
        }
        let rate = pairs as f64 / best;
        let speedup = scalar_secs / best;
        t.row(vec![
            name.into(),
            secs(best),
            format!("{:.2e}", rate),
            ratio(speedup),
        ]);
        json_rows.push(format!(
            "    {{\"backend\": \"{name}\", \"seconds\": {best:.6}, \
             \"pairs_per_sec\": {rate:.1}, \"speedup_vs_scalar\": {speedup:.3}}}"
        ));
    }
    t.print();
    println!();

    // Telemetry overhead — the same search once with the default (null)
    // recorder and once fully instrumented. The null path must stay off
    // the hot loop (acceptance: <2% on the step-2 kernel bench); the
    // instrumented run's report goes next to the bench numbers.
    let cfg = experiment_config();
    let null_run = {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = search_genome(
                &workload.banks[1],
                &workload.genome.genome,
                blosum62(),
                cfg.clone(),
            );
            best = best.min(t0.elapsed().as_secs_f64());
            result = Some(r);
        }
        (best, result.unwrap())
    };
    let (recorded_run, rec) = {
        let mut best = f64::INFINITY;
        let mut result = None;
        let mut last_rec = None;
        for _ in 0..3 {
            // Fresh recorder per run so the committed report holds
            // single-run counts, not a 3× accumulation.
            let rec = psc_core::MemRecorder::new();
            let t0 = Instant::now();
            let r = psc_core::try_search_genome_traced(
                &workload.banks[1],
                &workload.genome.genome,
                blosum62(),
                cfg.clone(),
                &rec,
                &psc_core::NullTracer,
            )
            .expect("experiment config is valid");
            best = best.min(t0.elapsed().as_secs_f64());
            result = Some(r);
            last_rec = Some(rec);
        }
        ((best, result.unwrap()), last_rec.unwrap())
    };
    assert_eq!(
        null_run.1.output.hsps, recorded_run.1.output.hsps,
        "telemetry recording changed search output"
    );
    let overhead_pct = (recorded_run.0 / null_run.0 - 1.0) * 100.0;
    println!(
        "telemetry overhead: null {} vs recorded {} ({overhead_pct:+.2} %)\n",
        secs(null_run.0),
        secs(recorded_run.0)
    );
    let report_path = "BENCH_step2_report.json";
    let report = psc_core::build_run_report(&recorded_run.1.output, &cfg, &rec.snapshot());
    match std::fs::write(report_path, report.to_json_string()) {
        Ok(()) => eprintln!("[experiments] wrote {report_path}"),
        Err(e) => eprintln!("[experiments] could not write {report_path}: {e}"),
    }

    let json = format!(
        "{{\n  \"experiment\": \"step2_kernels\",\n  \"window_len\": {window_len},\n  \
         \"pairs\": {pairs},\n  \"threads\": 1,\n  \"backends\": [\n{}\n  ],\n  \
         \"telemetry\": {{\"null_seconds\": {:.6}, \"recorded_seconds\": {:.6}, \
         \"overhead_pct\": {overhead_pct:.2}, \"report_path\": \"{report_path}\"}}\n}}\n",
        json_rows.join(",\n"),
        null_run.0,
        recorded_run.0,
    );
    let path = "BENCH_step2_kernels.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[experiments] wrote {path}"),
        Err(e) => eprintln!("[experiments] could not write {path}: {e}"),
    }
}

/// Step-2 balance — the bucketed work-stealing schedule against the
/// contiguous key-range split, across every resolved kernel backend and
/// a thread sweep. Every configuration's candidate vector is asserted
/// byte-identical to the scalar baseline, the widest lane kernel's
/// per-item costs are replayed through [`psc_core::shard_critical_path`]
/// for modeled 2/4/8-core walls, and the lane-occupancy means of both
/// schedules are computed analytically from the index lists. Writes
/// `BENCH_step2_balance.json`.
pub fn step2_balance(workload: &Workload, quick: bool) {
    use psc_core::step2::{
        bucketed_items, lpt_order, rectangle_lane_slots, run_software, run_software_keys,
        Step2Params, Step2Schedule,
    };
    use psc_core::{shard_critical_path, KernelChoice};
    use psc_index::{subset_seed_span3, FlatBank, SeedIndex};

    println!("## Step-2 balance — schedule × kernel × threads");
    let frames = translate_six_frames(&workload.genome.genome, GeneticCode::standard()).to_bank();
    let f0 = FlatBank::from_bank(&workload.banks[1]);
    let f1 = FlatBank::from_bank(&frames);
    let model = subset_seed_span3();
    let i0 = SeedIndex::build(&f0, &model, 1);
    let i1 = SeedIndex::build(&f1, &model, 1);
    let pairs = i0.pair_count(&i1);
    let key_count = i0.key_count() as u32;

    let params_for = |choice: KernelChoice, schedule: Step2Schedule| Step2Params {
        matrix: blosum62(),
        kernel: Kernel::ClampedSum,
        span: 3,
        n_ctx: 28,
        threshold: 45,
        kernel_backend: choice,
        schedule,
    };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 8] };

    let mut t = Table::new(&[
        "backend",
        "schedule",
        "threads",
        "seconds",
        "pairs/s",
        "vs scalar",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut scalar_secs = 0.0f64;
    let mut baseline: Option<Vec<psc_core::step2::Candidate>> = None;
    let mut configs_checked = 0usize;
    let mut seen: Vec<&str> = Vec::new();
    let mut window_len = 0usize;
    let mut widest_choice = KernelChoice::Scalar;
    let mut widest_name = "scalar";
    let mut widest_width = 0usize;
    let mut widest_speedup_1t = 0.0f64;
    for choice in [
        KernelChoice::Scalar,
        KernelChoice::Profile,
        KernelChoice::Simd,
        KernelChoice::Wide,
    ] {
        let probe = params_for(choice, Step2Schedule::Contiguous);
        let backend = probe.resolved_backend();
        let name = backend.name();
        if seen.contains(&name) {
            // Without the ISA the choice downgrades to a backend that
            // already ran; one measurement per resolved backend.
            continue;
        }
        seen.push(name);
        window_len = probe.window_len();
        for schedule in [Step2Schedule::Contiguous, Step2Schedule::Bucketed] {
            let params = params_for(choice, schedule);
            // Warm-up pass doubles as the bit-identity check.
            let (cands, _) = run_software(&f0, &i0, &f1, &i1, &params, 1);
            match &baseline {
                None => baseline = Some(cands),
                Some(b) => {
                    assert_eq!(
                        b,
                        &cands,
                        "{name}/{} diverged from the scalar candidates",
                        schedule.name()
                    );
                    configs_checked += 1;
                }
            }
            for &threads in thread_counts {
                let reps = if threads == 1 && !quick { 3 } else { 1 };
                let mut best = f64::INFINITY;
                let mut out = Vec::new();
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let r = run_software(&f0, &i0, &f1, &i1, &params, threads);
                    best = best.min(t0.elapsed().as_secs_f64());
                    out = r.0;
                }
                assert_eq!(
                    baseline.as_ref().expect("baseline set on warm-up"),
                    &out,
                    "{name}/{}/{threads}t diverged from the scalar candidates",
                    schedule.name()
                );
                configs_checked += 1;
                if name == "scalar" && schedule == Step2Schedule::Contiguous && threads == 1 {
                    scalar_secs = best;
                }
                let rate = pairs as f64 / best;
                let speedup = scalar_secs / best;
                if threads == 1
                    && (backend.lane_width() > widest_width
                        || (backend.lane_width() == widest_width && speedup > widest_speedup_1t))
                {
                    widest_choice = choice;
                    widest_name = name;
                    widest_width = backend.lane_width();
                    widest_speedup_1t = speedup;
                }
                t.row(vec![
                    name.into(),
                    schedule.name().into(),
                    format!("{threads}"),
                    secs(best),
                    format!("{:.2e}", rate),
                    ratio(speedup),
                ]);
                json_rows.push(format!(
                    "    {{\"backend\": \"{name}\", \"schedule\": \"{}\", \
                     \"threads\": {threads}, \"seconds\": {best:.6}, \
                     \"pairs_per_sec\": {rate:.1}, \"speedup_vs_scalar\": {speedup:.3}}}",
                    schedule.name()
                ));
            }
        }
    }
    t.print();
    println!();
    println!("bit-identity: true ({configs_checked} configurations matched the scalar baseline)");

    // Mean lane occupancy per schedule, analytically from the index
    // lists under the widest resolved backend — the same accounting the
    // pipeline's step2.lane_fill histogram uses.
    let widest_backend = params_for(widest_choice, Step2Schedule::Contiguous).resolved_backend();
    let fill_of = |schedule: Step2Schedule| -> f64 {
        let (mut useful, mut total) = (0u64, 0u64);
        for k in 0..key_count {
            let (u, s) =
                rectangle_lane_slots(i0.list(k).len(), i1.list(k).len(), widest_backend, schedule);
            useful += u;
            total += s;
        }
        if total == 0 {
            0.0
        } else {
            useful as f64 * 100.0 / total as f64
        }
    };
    let fill_contiguous = fill_of(Step2Schedule::Contiguous);
    let fill_bucketed = fill_of(Step2Schedule::Bucketed);
    println!(
        "lane fill ({widest_name}): contiguous {fill_contiguous:.2} %, \
         bucketed {fill_bucketed:.2} % mean occupancy"
    );
    assert!(
        fill_bucketed > 0.0,
        "bucketed schedule reported zero lane occupancy"
    );
    if !quick {
        assert!(
            fill_bucketed >= 90.0,
            "bucketed mean lane occupancy {fill_bucketed:.2} % fell below the 90 % floor"
        );
        assert!(
            widest_speedup_1t >= 34.919,
            "widest kernel {widest_name} 1-thread speedup {widest_speedup_1t:.3}x \
             fell below the 34.919x BENCH_step2_kernels simd baseline"
        );
    }

    // Modeled scaling: time each bucketed work item sequentially on the
    // widest kernel, then replay the costs through the same atomic-pull
    // discipline the scheduler runs (LPT order, idlest worker next).
    let items = bucketed_items(&i0, &i1, 0..key_count);
    let wparams = params_for(widest_choice, Step2Schedule::Bucketed);
    let mut costs = vec![0.0f64; items.len()];
    for (i, item) in items.iter().enumerate() {
        let t0 = Instant::now();
        let r = run_software_keys(&f0, &i0, &f1, &i1, &wparams, item.keys.clone(), 1);
        costs[i] = t0.elapsed().as_secs_f64();
        std::hint::black_box(r);
    }
    let order = lpt_order(&items);
    let ordered: Vec<f64> = order.iter().map(|&i| costs[i]).collect();
    let modeled_p1: f64 = ordered.iter().sum();
    let modeled_p2 = shard_critical_path(&ordered, 2);
    let modeled_p4 = shard_critical_path(&ordered, 4);
    let modeled_p8 = shard_critical_path(&ordered, 8);
    println!(
        "modeled pull schedule ({widest_name}, {} items): p1 {} p2 {} p4 {} p8 {} \
         (8-core balance efficiency {:.1} %)\n",
        items.len(),
        secs(modeled_p1),
        secs(modeled_p2),
        secs(modeled_p4),
        secs(modeled_p8),
        modeled_p1 / (modeled_p8 * 8.0) * 100.0
    );

    let json = format!(
        "{{\n  \"experiment\": \"step2_balance\",\n  \"window_len\": {window_len},\n  \
         \"pairs\": {pairs},\n  \"quick\": {quick},\n  \"bit_identical\": true,\n  \
         \"configs_checked\": {configs_checked},\n  \
         \"widest\": {{\"backend\": \"{widest_name}\", \"lane_width\": {widest_width}, \
         \"speedup_vs_scalar_1t\": {widest_speedup_1t:.3}}},\n  \
         \"lane_fill_mean_pct\": {{\"contiguous\": {fill_contiguous:.2}, \
         \"bucketed\": {fill_bucketed:.2}}},\n  \"bucketed_items\": {},\n  \
         \"modeled\": {{\"p1\": {modeled_p1:.6}, \"p2\": {modeled_p2:.6}, \
         \"p4\": {modeled_p4:.6}, \"p8\": {modeled_p8:.6}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        items.len(),
        json_rows.join(",\n"),
    );
    let path = "BENCH_step2_balance.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[experiments] wrote {path}"),
        Err(e) => eprintln!("[experiments] could not write {path}: {e}"),
    }
}

/// Tracing overhead — the flight recorder's zero-cost claim, measured.
///
/// Runs the same search best-of-3 with the tracer off (`NullTracer`)
/// and on (`RingTracer`, wall clock, parallel step 2 + step 3 for the
/// richest event mix), asserts the recorded overhead stays within the
/// 2 % budget DESIGN.md §13 promises, and writes
/// `BENCH_trace_overhead.json`.
/// `BENCH_serve_amortize.json`: per-query latency answering from
/// pipeline state loaded once from an index bundle (the `psc serve`
/// path) vs one-shot searches that rebuild the genome-side index on
/// every query. Served per-query walls exclude the index build — that
/// is the amortization the artifact exists for.
pub fn serve_amortize(workload: &Workload) {
    use psc_core::{NullRecorder, NullTracer, SearchEngine};
    println!("## Serve amortization — bundle loaded once vs per-query index builds (3× bank)");
    println!("   (identical queries; served and one-shot outputs asserted bit-identical)\n");
    let cfg = experiment_config();
    let bank = &workload.banks[1];
    let genome = &workload.genome.genome;
    const QUERIES: usize = 5;

    // One-shot path: every query pays frame translation + T1 build.
    let mut oneshot = Vec::with_capacity(QUERIES);
    let mut reference = None;
    for _ in 0..QUERIES {
        let t0 = Instant::now();
        let r = search_genome(bank, genome, blosum62(), cfg.clone());
        oneshot.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = reference.replace(r) {
            let now = reference.as_ref().unwrap();
            assert_eq!(prev.output.hsps, now.output.hsps, "one-shot runs diverged");
        }
    }
    let reference = reference.unwrap();

    // Serve path: build the engine once, round-trip it through the
    // bundle format, then answer the same query repeatedly.
    let t0 = Instant::now();
    let built = SearchEngine::for_genome(genome, blosum62(), cfg.clone(), &NullRecorder);
    let bytes = built.to_bundle_bytes(None);
    let build_seconds = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let engine =
        SearchEngine::from_bundle(&bytes, blosum62(), cfg.clone()).expect("bundle round trip");
    let load_seconds = t0.elapsed().as_secs_f64();
    let mut served = Vec::with_capacity(QUERIES);
    for _ in 0..QUERIES {
        let t0 = Instant::now();
        let r = engine
            .query_traced(bank, &NullRecorder, &NullTracer)
            .expect("served query");
        served.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            reference.output.hsps, r.output.hsps,
            "served query diverged from one-shot search"
        );
    }

    let best = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (best_oneshot, best_served) = (best(&oneshot), best(&served));
    let mut t = Table::new(&["path", "best query (s)", "index build", "speedup"]);
    t.row(vec![
        "one-shot search".to_string(),
        secs(best_oneshot),
        "every query".to_string(),
        ratio(1.0),
    ]);
    t.row(vec![
        "serve (bundle)".to_string(),
        secs(best_served),
        format!("once ({})", secs(build_seconds)),
        ratio(best_oneshot / best_served),
    ]);
    t.print();
    println!(
        "\n   (bundle: {} bytes, loads in {}; served walls exclude the build —",
        bytes.len(),
        secs(load_seconds)
    );
    println!(
        "    after ~{:.0} queries the build cost is fully amortized)\n",
        (build_seconds / (best_oneshot - best_served).max(1e-9)).ceil()
    );

    let fmt_list = |walls: &[f64]| {
        walls
            .iter()
            .map(|w| format!("{w:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"experiment\": \"serve_amortize\",\n  \
         \"queries\": {QUERIES},\n  \
         \"bundle_bytes\": {},\n  \
         \"index_build_seconds\": {build_seconds:.6},\n  \
         \"bundle_load_seconds\": {load_seconds:.6},\n  \
         \"oneshot_query_walls\": [{}],\n  \
         \"served_query_walls\": [{}],\n  \
         \"best_oneshot_seconds\": {best_oneshot:.6},\n  \
         \"best_served_seconds\": {best_served:.6},\n  \
         \"amortized_speedup\": {:.3},\n  \
         \"served_excludes_index_build\": true,\n  \
         \"hsps\": {}\n}}\n",
        bytes.len(),
        fmt_list(&oneshot),
        fmt_list(&served),
        best_oneshot / best_served,
        reference.output.hsps.len(),
    );
    let path = "BENCH_serve_amortize.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[experiments] wrote {path}"),
        Err(e) => eprintln!("[experiments] could not write {path}: {e}"),
    }
}

pub fn trace_overhead(workload: &Workload) {
    println!("## Tracing overhead — flight recorder on vs off (10x bank)");
    println!("   (budget: <= 2 % wall overhead with the wall-clock tracer attached)\n");
    let cfg = PipelineConfig {
        backend: Step2Backend::SoftwareParallel { threads: 2 },
        step3_threads: 2,
        ..experiment_config()
    };
    let reps = 3;
    let best = |trace: bool| -> (f64, u64, usize, u64) {
        let mut best_wall = f64::INFINITY;
        let mut units = 0u64;
        let mut lanes = 0usize;
        let mut dropped = 0u64;
        for _ in 0..reps {
            let tracer = psc_core::RingTracer::new(psc_core::TraceClock::Wall);
            let t0 = Instant::now();
            let tracer_used: &dyn psc_core::Tracer = if trace {
                &tracer
            } else {
                &psc_core::NullTracer
            };
            let r = psc_core::try_search_genome_traced(
                &workload.banks[2],
                &workload.genome.genome,
                blosum62(),
                cfg.clone(),
                &psc_core::NullRecorder,
                tracer_used,
            )
            .expect("experiment config is valid");
            let wall = t0.elapsed().as_secs_f64();
            std::hint::black_box(&r);
            if wall < best_wall {
                best_wall = wall;
                if trace {
                    let t = tracer.finish(&[]);
                    units = t.lanes.iter().map(|l| l.spans.len() as u64).sum();
                    lanes = t.lanes.len();
                    dropped = t.dropped;
                }
            }
        }
        (best_wall, units, lanes, dropped)
    };
    // Interleave-free ordering: all plain reps, then all traced reps;
    // best-of-N absorbs warm-up and scheduler noise either way.
    let (plain, _, _, _) = best(false);
    let (traced, units, lanes, dropped) = best(true);
    let overhead_pct = (traced - plain) / plain * 100.0;
    let mut t = Table::new(&["mode", "best wall (s)", "spans", "lanes", "overhead"]);
    t.row(vec![
        "tracer off".into(),
        secs(plain),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.row(vec![
        "tracer on (wall)".into(),
        secs(traced),
        units.to_string(),
        lanes.to_string(),
        format!("{overhead_pct:+.2} %"),
    ]);
    t.print();
    println!("\n   (best of {reps}; spans = committed span events across all lanes)\n");
    let json = format!(
        "{{\n  \"experiment\": \"trace_overhead\",\n  \"reps\": {reps},\n  \
         \"backend\": \"parallel x2, step3 x2\",\n  \
         \"plain_seconds\": {plain:.6},\n  \"traced_seconds\": {traced:.6},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"budget_pct\": 2.0,\n  \
         \"trace_spans\": {units},\n  \"trace_lanes\": {lanes},\n  \
         \"trace_dropped\": {dropped}\n}}\n"
    );
    let path = "BENCH_trace_overhead.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[experiments] wrote {path}"),
        Err(e) => eprintln!("[experiments] could not write {path}: {e}"),
    }
    // The budget is 2 % of the wall, floored at 2 % of one second so
    // `--quick` runs (tens of milliseconds, noise-dominated) don't
    // flake while full-scale runs are gated at the real 2 %.
    assert!(
        traced - plain <= 0.02 * plain.max(1.0),
        "tracing overhead {overhead_pct:.2} % ({:.3} s) exceeds the 2 % budget",
        traced - plain
    );
}

/// `experiments fleet-scaling` — the multi-board fleet sweep: HSP
/// bit-identity across every boards × steal-policy × fault-plan combo,
/// quarantine engagement under a heavy-tail plan, and the modeled
/// cluster-speedup ladder (the exact dispatch schedule replayed at each
/// fleet size), written to `BENCH_fleet_scaling.json`. The wall budget
/// keeps the sweep a cheap CI gate, like `analyzer-bench`.
pub fn fleet_scaling(workload: &Workload, quick: bool) {
    use psc_rasc::{FleetConfig, StealPolicy};
    println!("## Fleet scaling — work-stealing dispatch across N simulated boards (3x bank)");
    println!("   (HSPs asserted bit-identical to the 1-board run for every combo)\n");
    let t_sweep = Instant::now();
    let bank = &workload.banks[1];
    let genome = &workload.genome.genome;
    let cfg_for =
        |boards: usize, steal: StealPolicy, plan: Option<psc_rasc::FaultPlan>| PipelineConfig {
            backend: Step2Backend::Rasc {
                pe_count: 192,
                fpga_count: 2,
                host_threads: 2,
            },
            fleet: FleetConfig {
                boards,
                steal_policy: steal,
                ..FleetConfig::default()
            },
            fault_plan: plan,
            ..experiment_config()
        };

    // Reference: the classic single board, fault-free.
    let reference = search_genome(
        bank,
        genome,
        blosum62(),
        cfg_for(1, StealPolicy::Richest, None),
    );
    let mut rows = Vec::new();
    let mut checked = 0u32;
    for boards in [1usize, 2, 4, 8] {
        for steal in [StealPolicy::Richest, StealPolicy::None] {
            for plan in [Option::None, Some(psc_rasc::FaultPlan::seeded_heavy(11))] {
                let tail = plan.is_some();
                let r = search_genome(bank, genome, blosum62(), cfg_for(boards, steal, plan));
                assert_eq!(
                    reference.output.hsps,
                    r.output.hsps,
                    "HSPs diverged at boards={boards} steal={} heavy_tail={tail}",
                    steal.name()
                );
                assert_eq!(
                    reference.output.stats,
                    r.output.stats,
                    "stats diverged at boards={boards} steal={} heavy_tail={tail}",
                    steal.name()
                );
                checked += 1;
                if let Some(f) = &r.output.fleet {
                    rows.push((
                        boards,
                        steal.name(),
                        tail,
                        f.steals,
                        f.quarantined.len(),
                        f.makespan_seconds,
                    ));
                }
            }
        }
    }

    // Quarantine engagement: a heavy-tail plan with a one-strike
    // threshold must drain at least one board — deterministically, so
    // scan seeds in order and pin the first that does.
    let mut quarantine = Option::None;
    for seed in 1u64..=24 {
        let mut cfg = cfg_for(
            4,
            StealPolicy::Richest,
            Some(psc_rasc::FaultPlan::seeded_heavy(seed)),
        );
        cfg.fleet.quarantine_after = 1;
        let r = search_genome(bank, genome, blosum62(), cfg);
        assert_eq!(
            reference.output.hsps, r.output.hsps,
            "HSPs diverged under quarantine (seed {seed})"
        );
        let f = r.output.fleet.expect("fleet report at 4 boards");
        if !f.quarantined.is_empty() {
            quarantine = Some((seed, f.quarantined.len(), f.redispatched, f.steals));
            break;
        }
    }
    let (q_seed, q_boards, q_redispatched, q_steals) =
        quarantine.expect("no heavy-tail seed in 1..=24 quarantined a board");

    // Modeled cluster-speedup ladder from the fault-free 8-board run:
    // the same dispatch schedule replayed at each fleet size.
    let r8 = search_genome(
        bank,
        genome,
        blosum62(),
        cfg_for(8, StealPolicy::Richest, None),
    );
    let fleet8 = r8.output.fleet.expect("fleet report at 8 boards");
    let ladder = &fleet8.modeled;
    let at = |n: usize| {
        ladder
            .iter()
            .find(|&&(b, _)| b == n)
            .map(|&(_, s)| s)
            .expect("ladder point")
    };
    let speedup = |n: usize| at(1) / at(n);

    let mut t = Table::new(&["boards", "modeled makespan (s)", "speedup vs 1 board"]);
    for &(n, s) in ladder {
        t.row(vec![n.to_string(), secs(s), ratio(speedup(n))]);
    }
    t.print();
    println!(
        "\n   ({checked} configs bit-identical; quarantine: seed {q_seed} drained {q_boards} board(s), \
         {q_redispatched} entries re-dispatched, {q_steals} steals)\n"
    );

    let wall = t_sweep.elapsed().as_secs_f64();
    let budget = 120.0;
    let ladder_json = ladder
        .iter()
        .map(|&(n, s)| {
            format!(
                "{{\"boards\": {n}, \"makespan_seconds\": {s:.9}, \"speedup\": {:.3}}}",
                speedup(n)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let rows_json = rows
        .iter()
        .map(|(b, steal, tail, steals, quarantined, makespan)| {
            format!(
                "{{\"boards\": {b}, \"steal\": \"{steal}\", \"heavy_tail\": {tail}, \
                 \"steals\": {steals}, \"quarantined\": {quarantined}, \
                 \"makespan_seconds\": {makespan:.9}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        "{{\n  \"experiment\": \"fleet_scaling\",\n  \
         \"quick\": {quick},\n  \
         \"configs_checked_bit_identical\": {checked},\n  \
         \"hsps\": {},\n  \
         \"modeled_ladder\": [\n    {ladder_json}\n  ],\n  \
         \"speedup_4_boards\": {:.3},\n  \
         \"speedup_8_boards\": {:.3},\n  \
         \"quarantine\": {{\"seed\": {q_seed}, \"boards_drained\": {q_boards}, \
         \"entries_redispatched\": {q_redispatched}, \"steals\": {q_steals}, \
         \"output_unchanged\": true}},\n  \
         \"fleet_runs\": [\n    {rows_json}\n  ],\n  \
         \"wall_seconds\": {wall:.3},\n  \"budget_seconds\": {budget}\n}}\n",
        reference.output.hsps.len(),
        speedup(4),
        speedup(8),
    );
    let path = "BENCH_fleet_scaling.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[experiments] wrote {path}"),
        Err(e) => eprintln!("[experiments] could not write {path}: {e}"),
    }
    assert!(
        speedup(4) >= 3.5,
        "modeled 4-board speedup {:.2} below the 3.5x floor",
        speedup(4)
    );
    assert!(
        speedup(8) >= 6.0,
        "modeled 8-board speedup {:.2} below the 6x floor",
        speedup(8)
    );
    assert!(
        wall < budget,
        "fleet-scaling sweep took {wall:.1} s — over the {budget} s budget"
    );
}

/// `experiments analyzer-bench` — wall time of the full two-pass
/// workspace analysis (lex, symbol index, call graph, transitive
/// lints), best of 3, written to `BENCH_analyzer.json`. The 5 s budget
/// keeps the CI lint gate a cheap pre-merge step, not a build phase.
pub fn analyzer_bench() {
    println!("## Analyzer — full workspace analysis, best of 3 (budget: < 5 s)\n");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let text = std::fs::read_to_string(root.join("analyzer.toml")).expect("read analyzer.toml");
    let config = psc_analyzer::Config::parse(&text).expect("parse analyzer.toml");
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = psc_analyzer::analyze_workspace(root, &config).expect("analyze workspace");
        let wall = t0.elapsed().as_secs_f64();
        best = best.min(wall);
        report = Some(r);
    }
    let r = report.expect("three reps ran");
    println!(
        "   {} files, {} fns, {} call edges, {} unresolved calls, {} diagnostics in {:.3} s",
        r.files_checked,
        r.functions,
        r.call_edges,
        r.unresolved_calls,
        r.diagnostics.len(),
        best
    );
    let json = format!(
        "{{\n  \"experiment\": \"analyzer\",\n  \"best_of\": 3,\n  \
         \"wall_seconds\": {best:.4},\n  \"budget_seconds\": 5.0,\n  \
         \"files_checked\": {},\n  \"functions\": {},\n  \"call_edges\": {},\n  \
         \"unresolved_calls\": {},\n  \"diagnostics\": {}\n}}\n",
        r.files_checked,
        r.functions,
        r.call_edges,
        r.unresolved_calls,
        r.diagnostics.len()
    );
    let path = "BENCH_analyzer.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[experiments] wrote {path}"),
        Err(e) => eprintln!("[experiments] could not write {path}: {e}"),
    }
    assert!(
        best < 5.0,
        "workspace analysis took {best:.2} s — over the 5 s budget"
    );
}
