//! A miniature of the paper's Table 6: both tools evaluated with ROC50
//! and AP-Mean on a family benchmark with constructed ground truth. The
//! paper's claim is *similar* sensitivity/selectivity; we assert both
//! tools clear a floor and land near each other.

use psc_blast::{tblastn, BlastConfig};
use psc_core::{NullRecorder, NullTracer, PipelineConfig, SearchEngine};
use psc_datagen::family::FamilyConfig;
use psc_datagen::MutationConfig;
use psc_quality::{build_benchmark, evaluate_ranked, Benchmark, BenchmarkConfig, RankedHit};
use psc_score::blosum62;
use psc_seqio::{translate_six_frames, Frame, FrameCoord, GeneticCode};

fn small_benchmark() -> Benchmark {
    build_benchmark(&BenchmarkConfig {
        families: FamilyConfig {
            family_count: 10,
            members_per_family: 4,
            min_len: 100,
            max_len: 200,
            mutation: MutationConfig {
                divergence: 0.35,
                indel_rate: 0.008,
                indel_extend: 0.4,
            },
            seed: 9090,
        },
        genome_slack: 2.5,
        seed: 9091,
    })
}

fn pipeline_hits(b: &Benchmark) -> Vec<RankedHit> {
    let config = PipelineConfig::default();
    let engine = SearchEngine::for_genome(&b.genome, blosum62(), config, &NullRecorder);
    let result = engine.query_traced(&b.queries, &NullRecorder, &NullTracer);
    let result = result.unwrap();
    result
        .matches
        .iter()
        .map(|m| RankedHit {
            query: m.protein_idx,
            score: m.bit_score,
            start: m.genome_start,
            end: m.genome_end,
        })
        .collect()
}

fn blast_hits(b: &Benchmark) -> Vec<RankedHit> {
    let translated = translate_six_frames(&b.genome, GeneticCode::standard());
    let frames = translated.to_bank();
    let report = tblastn(&b.queries, &frames, blosum62(), &BlastConfig::default());
    report
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
        .collect()
}

#[test]
fn both_tools_score_similarly_on_the_family_benchmark() {
    let b = small_benchmark();
    let pipe = evaluate_ranked(&b, &pipeline_hits(&b));
    let blast = evaluate_ranked(&b, &blast_hits(&b));

    // Floors: at 35% divergence both tools should recover most family
    // structure.
    assert!(pipe.roc50 > 0.5, "pipeline ROC50 too low: {pipe:?}");
    assert!(blast.roc50 > 0.5, "baseline ROC50 too low: {blast:?}");
    assert!(pipe.ap_mean > 0.5, "pipeline AP too low: {pipe:?}");
    assert!(blast.ap_mean > 0.5, "baseline AP too low: {blast:?}");

    // Similarity: the paper reports ROC50 0.468 vs 0.479 and AP 0.447 vs
    // 0.441 — differences of ~0.01. Allow a wider band at our scale.
    assert!(
        (pipe.roc50 - blast.roc50).abs() < 0.15,
        "ROC50 gap too wide: {pipe:?} vs {blast:?}"
    );
    assert!(
        (pipe.ap_mean - blast.ap_mean).abs() < 0.15,
        "AP gap too wide: {pipe:?} vs {blast:?}"
    );
}
