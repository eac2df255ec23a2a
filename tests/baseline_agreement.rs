//! The pipeline and the tblastn-like baseline must agree on what is
//! similar: every planted gene found by one should be found by the other
//! (the paper's sensitivity claim, Table 6, in its crudest form).

use psc_blast::{tblastn, BlastConfig};
use psc_core::{NullRecorder, NullTracer, PipelineConfig, SearchEngine};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig, MutationConfig};
use psc_score::blosum62;
use psc_seqio::{translate_six_frames, Frame, FrameCoord, GeneticCode};

#[test]
fn both_tools_recover_the_same_plants() {
    let proteins = random_bank(&BankConfig {
        count: 15,
        min_len: 90,
        max_len: 180,
        seed: 501,
    });
    let synth = generate_genome(
        &GenomeConfig {
            len: 45_000,
            gene_count: 12,
            mutation: MutationConfig {
                divergence: 0.2,
                indel_rate: 0.002,
                indel_extend: 0.3,
            },
            seed: 502,
            ..GenomeConfig::default()
        },
        &proteins,
    );
    assert!(synth.plants.len() >= 8);

    // Pipeline.
    let config = PipelineConfig::default();
    let engine = SearchEngine::for_genome(&synth.genome, blosum62(), config, &NullRecorder);
    let pipe = engine.query_traced(&proteins, &NullRecorder, &NullTracer);
    let pipe = pipe.unwrap();

    // Baseline: same translated-frames subject bank.
    let translated = translate_six_frames(&synth.genome, GeneticCode::standard());
    let frames_bank = translated.to_bank();
    let blast = tblastn(&proteins, &frames_bank, blosum62(), &BlastConfig::default());

    // Map baseline HSPs to genomic intervals.
    let blast_intervals: Vec<(usize, usize, usize)> = blast
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
            (h.seq0 as usize, s, e)
        })
        .collect();

    for plant in &synth.plants {
        let pipe_found = pipe.matches.iter().any(|m| {
            m.protein_idx == plant.protein_idx
                && m.genome_start < plant.end
                && plant.start < m.genome_end
        });
        let blast_found = blast_intervals
            .iter()
            .any(|&(q, s, e)| q == plant.protein_idx && s < plant.end && plant.start < e);
        assert!(pipe_found, "pipeline missed plant {plant:?}");
        assert!(blast_found, "baseline missed plant {plant:?}");
    }
}

#[test]
fn baseline_profile_is_scan_heavy() {
    // The baseline spends its effort scanning + extending, mirroring
    // why the paper could not just accelerate BLAST as-is. Asserted on
    // the deterministic work counters, not wall-clock splits (which are
    // noisy under CI load).
    let proteins = random_bank(&BankConfig {
        count: 10,
        min_len: 100,
        max_len: 200,
        seed: 601,
    });
    let synth = generate_genome(
        &GenomeConfig {
            len: 30_000,
            gene_count: 5,
            seed: 602,
            ..GenomeConfig::default()
        },
        &proteins,
    );
    let translated = translate_six_frames(&synth.genome, GeneticCode::standard());
    let report = tblastn(
        &proteins,
        &translated.to_bank(),
        blosum62(),
        &BlastConfig::default(),
    );
    // The scan examines far more word hits than the lookup has entries
    // to build: dictionary construction is O(query residues), the scan
    // is O(subject residues × hit density). >10 hits per query residue
    // pins the scan-heavy shape without touching the clock.
    let query_residues: u64 = report.search_space.0 as u64;
    assert!(report.word_hits > 10 * query_residues);
    // And the extension funnel narrows: word hits ⊇ ungapped ⊇ gapped.
    assert!(report.word_hits >= report.ungapped_extensions);
    assert!(report.ungapped_extensions >= report.gapped_extensions);
    assert!(report.gapped_extensions > 0);
    // Wall clock is still recorded, just not compared.
    assert!(report.scan_seconds > 0.0);
}
