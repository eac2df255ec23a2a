//! End-to-end pipeline integration: planted-homology recovery, profile
//! sanity, and the step-2 dominance that motivates the whole paper.

#[path = "lattice.rs"]
mod lattice;

use psc_core::{PipelineConfig, Step2Backend};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig, MutationConfig};

fn workload() -> (psc_seqio::Bank, psc_datagen::SyntheticGenome) {
    let proteins = random_bank(&BankConfig {
        count: 20,
        min_len: 80,
        max_len: 200,
        seed: 2024,
    });
    let genome = generate_genome(
        &GenomeConfig {
            len: 60_000,
            gene_count: 15,
            mutation: MutationConfig {
                divergence: 0.2,
                indel_rate: 0.003,
                indel_extend: 0.3,
            },
            seed: 2025,
            ..GenomeConfig::default()
        },
        &proteins,
    );
    (proteins, genome)
}

#[test]
fn recovers_every_planted_gene() {
    let (proteins, synth) = workload();
    assert!(synth.plants.len() >= 10, "want a meaningful plant count");
    let result = lattice::search(&proteins, &synth.genome, PipelineConfig::default());
    for plant in &synth.plants {
        let found = result.matches.iter().any(|m| {
            m.protein_idx == plant.protein_idx
                && m.forward == plant.forward
                && m.genome_start < plant.end
                && plant.start < m.genome_end
        });
        assert!(found, "plant not recovered: {plant:?}");
    }
}

#[test]
fn no_hallucinated_matches() {
    // Every reported match must overlap *some* plant: the background is
    // random DNA, which should not align at E ≤ 1e-3.
    let (proteins, synth) = workload();
    let result = lattice::search(&proteins, &synth.genome, PipelineConfig::default());
    assert!(!result.matches.is_empty());
    for m in &result.matches {
        let on_plant = synth
            .plants
            .iter()
            .any(|p| m.genome_start < p.end && p.start < m.genome_end);
        assert!(on_plant, "match off any plant: {m:?}");
    }
}

#[test]
fn step2_dominates_sequential_profile() {
    // The paper's Table 1: ungapped extension ≈ 97 % of sequential time.
    // Wall-clock shares are noisy under CI load, so the dominance claim
    // is asserted on the deterministic work counters the profile stands
    // on: step 2 scores every index-pair (its work unit), and only a
    // sliver survives to become step-3 anchors — the work funnel the
    // paper offloads.
    let (proteins, synth) = workload();
    let result = lattice::search(
        &proteins,
        &synth.genome,
        PipelineConfig {
            backend: Step2Backend::SoftwareScalar,
            ..PipelineConfig::default()
        },
    );
    let stats = &result.output.stats;
    assert!(stats.step2.pairs > 0);
    // Step 2's workload dwarfs what it hands to step 3: >100 scored
    // pairs per gapped-extension anchor on this workload (the measured
    // ratio is ~1000:1; 100:1 keeps the test robust to config drift).
    assert!(
        stats.step2.pairs > 100 * stats.anchors.max(1),
        "step 2 should dominate the work profile: {} pairs vs {} anchors",
        stats.step2.pairs,
        stats.anchors
    );
    // And the funnel is monotone: candidates ⊇ anchors, pairs ⊇ candidates.
    assert!(stats.step2.candidates <= stats.step2.pairs);
    assert!(stats.anchors <= stats.step2.candidates);
    // The wall-clock profile is still recorded (sums to ~100 %) even
    // though its split is not asserted.
    let (p1, p2, p3) = result.output.profile.percentages();
    assert!((p1 + p2 + p3 - 100.0).abs() < 1.0, "{p1} {p2} {p3}");
}

#[test]
fn tighter_evalue_reports_less() {
    let (proteins, synth) = workload();
    let loose = lattice::search(
        &proteins,
        &synth.genome,
        PipelineConfig {
            max_evalue: 1e-3,
            ..PipelineConfig::default()
        },
    );
    let strict = lattice::search(
        &proteins,
        &synth.genome,
        PipelineConfig {
            max_evalue: 1e-40,
            ..PipelineConfig::default()
        },
    );
    assert!(strict.matches.len() <= loose.matches.len());
    for m in &strict.matches {
        assert!(m.evalue <= 1e-40);
    }
}

#[test]
fn parallel_index_and_step2_match_scalar() {
    let runs = lattice::check_where(|w, p| {
        let parallel = matches!(p.cfg.backend, lattice::Backend::Parallel(_));
        w.name == "genome" && (parallel || p.obs.index_threads > 1)
    });
    assert!(runs.iter().any(|(p, _)| p.obs.index_threads > 1));
}
