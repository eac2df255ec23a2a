//! Property tests for the synthetic data generators.

use psc_datagen::{
    generate_genome, mutate_protein, random_bank, BankConfig, GenomeConfig, MutationConfig,
};
use psc_seqio::prng::{for_cases, SplitMix64};
use psc_seqio::{Bank, GeneticCode};

/// Generated banks respect their configuration for any seed.
#[test]
fn banks_respect_config() {
    for_cases(0xda01, 32, |g| {
        let (seed, count, lo, extra) = (
            g.next_u64(),
            g.range(1usize..20),
            g.range(10usize..50),
            g.range(0usize..100),
        );
        let cfg = BankConfig {
            count,
            min_len: lo,
            max_len: lo + extra,
            seed,
        };
        let bank = random_bank(&cfg);
        assert_eq!(bank.len(), count);
        for (_, s) in bank.iter() {
            assert!(s.len() >= lo && s.len() <= lo + extra);
            assert!(s.residues.iter().all(|&c| c < 20));
        }
    });
}

/// Mutation at divergence d leaves ~(1-d) identity (no indels) for
/// any seed, within statistical tolerance.
#[test]
fn divergence_is_calibrated() {
    for_cases(0xda02, 32, |g| {
        let mut rng = SplitMix64::new(g.next_u64());
        let d = 0.05 + 0.75 * g.f64();
        let p = psc_datagen::random_protein(&mut rng, 4000);
        let m = mutate_protein(
            &mut rng,
            &p,
            &MutationConfig {
                divergence: d,
                indel_rate: 0.0,
                indel_extend: 0.0,
            },
        );
        assert_eq!(m.len(), p.len());
        let id = psc_datagen::mutate::identity(&p, &m);
        assert!(
            (id - (1.0 - d)).abs() < 0.05,
            "identity {id} vs expected {}",
            1.0 - d
        );
    });
}

/// Genome plants are always in-bounds, non-overlapping, and on codon
/// boundaries relative to their own start.
#[test]
fn plants_are_well_formed() {
    for_cases(0xda03, 32, |g| {
        let (seed, genes) = (g.next_u64(), g.range(1usize..12));
        let donors = random_bank(&BankConfig {
            count: 4,
            min_len: 60,
            max_len: 120,
            seed,
        });
        let g = generate_genome(
            &GenomeConfig {
                len: 30_000,
                gene_count: genes,
                seed,
                ..GenomeConfig::default()
            },
            &donors,
        );
        for w in g.plants.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        for p in &g.plants {
            assert!(p.end <= g.genome.len());
            assert_eq!((p.end - p.start) % 3, 0);
            assert!(p.protein_idx < donors.len());
        }
    });
}

/// Back-translation re-translates to the source protein for any seed.
#[test]
fn back_translation_round_trips() {
    for_cases(0xda04, 32, |g| {
        let mut rng = SplitMix64::new(g.next_u64());
        let protein = psc_datagen::random_protein(&mut rng, g.range(1usize..100));
        let code = GeneticCode::standard();
        let dna = psc_datagen::genome::back_translate(&mut rng, &protein, code);
        assert_eq!(dna.len(), protein.len() * 3);
        for (i, &aa) in protein.iter().enumerate() {
            let got = code.translate_codes(&dna[i * 3..i * 3 + 3]);
            assert_eq!(got.0, aa);
        }
    });
}

/// Generation is a pure function of its seed.
#[test]
fn determinism() {
    for_cases(0xda05, 32, |g| {
        let seed = g.next_u64();
        let cfg = BankConfig {
            count: 3,
            min_len: 30,
            max_len: 60,
            seed,
        };
        let a = random_bank(&cfg);
        let b = random_bank(&cfg);
        for i in 0..3 {
            assert_eq!(&a.get(i).residues, &b.get(i).residues);
        }
        let gcfg = GenomeConfig {
            len: 5_000,
            gene_count: 2,
            seed,
            ..GenomeConfig::default()
        };
        let x = generate_genome(&gcfg, &a);
        let y = generate_genome(&gcfg, &b);
        assert_eq!(x.genome.residues, y.genome.residues);
    });
}

/// Empty donor bank with zero genes is always valid.
#[test]
fn background_only_genomes() {
    for_cases(0xda06, 32, |g| {
        let (seed, len) = (g.next_u64(), g.range(100usize..5_000));
        let g = generate_genome(
            &GenomeConfig {
                len,
                gene_count: 0,
                seed,
                ..GenomeConfig::default()
            },
            &Bank::new(),
        );
        assert_eq!(g.genome.len(), len);
        assert!(g.plants.is_empty());
    });
}
