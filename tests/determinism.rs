//! Determinism guarantees: identical inputs and configuration produce
//! identical outputs — across repeated runs, across backends, and across
//! thread counts. This is what makes the simulated-hardware numbers in
//! EXPERIMENTS.md reproducible statements rather than measurements.

use psc_core::{
    search_genome, try_search_genome_traced, GenomeSearchResult, MemRecorder, NullTracer,
    PipelineConfig, Step2Backend,
};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
use psc_score::blosum62;

fn workload() -> (psc_seqio::Bank, psc_seqio::Seq) {
    let proteins = random_bank(&BankConfig {
        count: 15,
        min_len: 80,
        max_len: 160,
        seed: 313,
    });
    let genome = generate_genome(
        &GenomeConfig {
            len: 25_000,
            gene_count: 6,
            repeat_tracts: 3,
            seed: 314,
            ..GenomeConfig::default()
        },
        &proteins,
    );
    (proteins, genome.genome)
}

/// One recorded run (no flight recorder).
fn recorded(
    proteins: &psc_seqio::Bank,
    genome: &psc_seqio::Seq,
    cfg: PipelineConfig,
    rec: &MemRecorder,
) -> GenomeSearchResult {
    try_search_genome_traced(proteins, genome, blosum62(), cfg, rec, &NullTracer)
        .expect("valid configuration")
}

/// [`recorded`] reduced to its stripped run-report JSON: the full
/// telemetry artifact with the wall-clock fields (the only honest
/// nondeterminism) zeroed.
fn stripped_report(
    proteins: &psc_seqio::Bank,
    genome: &psc_seqio::Seq,
    cfg: &PipelineConfig,
) -> (GenomeSearchResult, String) {
    let rec = MemRecorder::new();
    let result = recorded(proteins, genome, cfg.clone(), &rec);
    let mut report = psc_core::build_run_report(&result.output, cfg, &rec.snapshot());
    report.strip_wall_clock();
    let json = report.to_json_string();
    (result, json)
}

#[test]
fn repeated_runs_identical() {
    let (proteins, genome) = workload();
    let run = || search_genome(&proteins, &genome, blosum62(), PipelineConfig::default());
    let a = run();
    let b = run();
    assert_eq!(a.output.hsps, b.output.hsps);
    assert_eq!(a.output.stats.step2, b.output.stats.step2);
    assert_eq!(a.matches.len(), b.matches.len());
}

#[test]
fn telemetry_recording_does_not_change_results() {
    // An instrumented run (in-memory recorder) must be bit-identical to
    // the default run (null recorder): recording only observes.
    let (proteins, genome) = workload();
    let cfg = || PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 64,
            fpga_count: 2,
            host_threads: 2,
        },
        ..PipelineConfig::default()
    };
    let plain = search_genome(&proteins, &genome, blosum62(), cfg());
    let rec = MemRecorder::new();
    let recorded = recorded(&proteins, &genome, cfg(), &rec);
    assert_eq!(plain.output.hsps, recorded.output.hsps);
    assert_eq!(plain.output.stats.step2, recorded.output.stats.step2);
    assert_eq!(plain.output.stats.anchors, recorded.output.stats.anchors);
    assert_eq!(plain.matches.len(), recorded.matches.len());
    let (pb, rb) = (plain.output.board.unwrap(), recorded.output.board.unwrap());
    assert_eq!(pb.fpga_cycles, rb.fpga_cycles);
    assert_eq!(pb.stall_cycles, rb.stall_cycles);
    assert_eq!(pb.fifo_peak, rb.fifo_peak);
    // And the recorder actually saw the run.
    let snap = rec.snapshot();
    assert_eq!(
        snap.counters.get("step2.pairs").copied(),
        Some(recorded.output.stats.step2.pairs)
    );
    assert!(snap.spans.contains_key("step2.wall"));
}

#[test]
fn board_numbers_independent_of_host_threads() {
    let (proteins, genome) = workload();
    let run = |host_threads: usize| {
        search_genome(
            &proteins,
            &genome,
            blosum62(),
            PipelineConfig {
                backend: Step2Backend::Rasc {
                    pe_count: 128,
                    fpga_count: 2,
                    host_threads,
                },
                ..PipelineConfig::default()
            },
        )
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.output.hsps, four.output.hsps);
    let b1 = one.output.board.unwrap();
    let b4 = four.output.board.unwrap();
    assert_eq!(b1.fpga_cycles, b4.fpga_cycles);
    assert_eq!(b1.stall_cycles, b4.stall_cycles);
    assert_eq!(b1.bytes_in, b4.bytes_in);
    assert_eq!(b1.bytes_out, b4.bytes_out);
    assert!((b1.accelerated_seconds - b4.accelerated_seconds).abs() < 1e-12);
}

#[test]
fn stripped_run_reports_are_byte_identical() {
    // The full telemetry artifact — counters, histograms, per-key
    // distributions, simulated board seconds, metadata — must serialize
    // to byte-identical JSON across runs once the wall-clock fields
    // (the only honest nondeterminism) are zeroed. This pins the report
    // pipeline end to end: recorder → snapshot → RunReport → JSON.
    let (proteins, genome) = workload();
    let cfg = PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 64,
            fpga_count: 2,
            host_threads: 2,
        },
        ..PipelineConfig::default()
    };
    let (_, a) = stripped_report(&proteins, &genome, &cfg);
    let (_, b) = stripped_report(&proteins, &genome, &cfg);
    assert!(a.contains("step2.pairs"), "report lost its counters");
    assert_eq!(a, b, "stripped run reports must be byte-identical");
}

#[test]
fn step3_threads_match_sequential_on_every_backend() {
    // Parallel step 3 is an optimisation, never a semantic change: for
    // every step-2 backend and fault plan, `step3_threads` ∈ {2, 8}
    // must reproduce the sequential run bit for bit — same HSPs, same
    // counters, and a byte-identical stripped run-report JSON.
    let rasc = Step2Backend::Rasc {
        pe_count: 64,
        fpga_count: 2,
        host_threads: 2,
    };
    let seeded = psc_rasc::FaultPlan::Seeded {
        seed: 97,
        rate_ppm: 250_000,
    };
    let heavy_tail = psc_rasc::FaultPlan::SeededHeavyTail {
        seed: 97,
        rate_ppm: 250_000,
    };
    let cases = [
        ("scalar", Step2Backend::SoftwareScalar, None),
        (
            "parallel",
            Step2Backend::SoftwareParallel { threads: 3 },
            None,
        ),
        ("rasc", rasc.clone(), None),
        ("rasc + seeded faults", rasc.clone(), Some(seeded)),
        ("rasc + heavy-tail faults", rasc, Some(heavy_tail)),
    ];
    let (proteins, genome) = workload();
    // The DP cells step 3 evaluates depend on the anchors alone: one
    // value for every backend, fault plan and thread count here, and
    // for every step-2 kernel below.
    let dp_cells = |json: &str| -> u64 {
        let report = psc_telemetry::RunReport::parse(json).expect("report JSON");
        report.counter("step3.dp_cells").expect("cell counter")
    };
    let mut cells = Vec::new();
    for (name, backend, fault_plan) in cases {
        let cfg = |step3_threads| PipelineConfig {
            backend: backend.clone(),
            fault_plan: fault_plan.clone(),
            step3_threads,
            ..PipelineConfig::default()
        };
        let (want, want_json) = stripped_report(&proteins, &genome, &cfg(1));
        assert!(
            want_json.contains("step3.shards"),
            "{name}: report lost the shard counter"
        );
        cells.push((name.to_string(), dp_cells(&want_json)));
        for step3_threads in [2, 8] {
            let (got, got_json) = stripped_report(&proteins, &genome, &cfg(step3_threads));
            let tag = format!("{name}, step3_threads={step3_threads}");
            assert_eq!(want.output.hsps, got.output.hsps, "HSPs diverged ({tag})");
            assert_eq!(
                want.output.stats, got.output.stats,
                "stats diverged ({tag})"
            );
            assert_eq!(want_json, got_json, "stripped report diverged ({tag})");
        }
    }
    for name in ["scalar", "profile", "simd", "wide"] {
        let cfg = PipelineConfig {
            step2_kernel: psc_core::KernelChoice::parse(name).expect("a kernel name"),
            ..PipelineConfig::default()
        };
        let (_, json) = stripped_report(&proteins, &genome, &cfg);
        cells.push((format!("{name} kernel"), dp_cells(&json)));
    }
    assert!(cells[0].1 > 0, "no DP cells counted");
    for (name, n) in &cells {
        assert_eq!(*n, cells[0].1, "step3.dp_cells under {name}");
    }
}

#[test]
fn masking_is_deterministic_and_recall_preserving() {
    let (proteins, genome) = workload();
    let masked_cfg = || PipelineConfig {
        mask: Some(psc_seqio::MaskConfig::default()),
        ..PipelineConfig::default()
    };
    let a = search_genome(&proteins, &genome, blosum62(), masked_cfg());
    let b = search_genome(&proteins, &genome, blosum62(), masked_cfg());
    assert_eq!(a.output.hsps, b.output.hsps);
    // Every unmasked match's protein is still matched when masking.
    let plain = search_genome(&proteins, &genome, blosum62(), PipelineConfig::default());
    for m in &plain.matches {
        assert!(
            a.matches.iter().any(|x| x.protein_idx == m.protein_idx
                && x.genome_start < m.genome_end
                && m.genome_start < x.genome_end),
            "masking lost {m:?}"
        );
    }
}
