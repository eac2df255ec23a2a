//! Synthetic genomes with planted protein-coding regions.
//!
//! The paper compares protein banks against the six-frame translation of
//! the Human chromosome 1. Our stand-in is a random genome into which
//! protein-coding regions are *planted*: bank proteins (or mutated
//! homologs of them) are back-translated through the genetic code and
//! spliced into either strand. The plants are recorded, giving every
//! sensitivity experiment a ground truth no real chromosome can offer.

use psc_seqio::prng::{cumulative, SplitMix64};
use psc_seqio::seq::reverse_complement_codes;
use psc_seqio::{Bank, GeneticCode, Seq};

use crate::mutate::{mutate_protein, MutationConfig};

/// Configuration for genome synthesis.
#[derive(Clone, Debug)]
pub struct GenomeConfig {
    /// Number of low-complexity repeat tracts to insert (microsatellite-
    /// like runs that translate into low-entropy protein; they exercise
    /// the masking path and are absent by default).
    pub repeat_tracts: usize,
    /// Length of each repeat tract in nucleotides.
    pub repeat_len: usize,
    /// Genome length in nucleotides.
    pub len: usize,
    /// GC content of the background (0..1).
    pub gc_content: f64,
    /// How many coding regions to plant.
    pub gene_count: usize,
    /// Mutation applied to each planted protein (models evolutionary
    /// distance between bank protein and genomic copy).
    pub mutation: MutationConfig,
    /// Maximum residues of a planted protein actually used (truncates very
    /// long proteins so plants fit comfortably).
    pub max_plant_aa: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenomeConfig {
    fn default() -> Self {
        GenomeConfig {
            len: 1_000_000,
            gc_content: 0.41, // human-like
            gene_count: 0,
            repeat_tracts: 0,
            repeat_len: 300,
            mutation: MutationConfig::default(),
            max_plant_aa: 400,
            seed: 0xd14,
        }
    }
}

/// Record of one planted coding region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlantedGene {
    /// Index of the source protein in the donor bank.
    pub protein_idx: usize,
    /// Genomic start (forward-strand coordinates, inclusive).
    pub start: usize,
    /// Genomic end (exclusive).
    pub end: usize,
    /// True when planted on the forward strand.
    pub forward: bool,
    /// Length of the planted region in amino acids.
    pub aa_len: usize,
}

/// A synthetic genome plus its plant records.
#[derive(Clone, Debug)]
pub struct SyntheticGenome {
    pub genome: Seq,
    pub plants: Vec<PlantedGene>,
}

/// Back-translate a protein into DNA, choosing uniformly among synonymous
/// codons. Residues with no codon (X, B, Z) are skipped.
pub fn back_translate(rng: &mut SplitMix64, protein: &[u8], code: &GeneticCode) -> Vec<u8> {
    let mut out = Vec::with_capacity(protein.len() * 3);
    for &aa in protein {
        let codons = code.codons_for(psc_seqio::Aa(aa));
        if codons.is_empty() {
            continue;
        }
        let c = *rng.select(&codons);
        out.extend_from_slice(&c);
    }
    out
}

/// Generate a genome per the configuration, planting mutated copies of
/// proteins drawn round-robin from `donors` (pass an empty bank with
/// `gene_count = 0` for a pure background genome).
pub fn generate_genome(config: &GenomeConfig, donors: &Bank) -> SyntheticGenome {
    assert!(
        config.gene_count == 0 || !donors.is_empty(),
        "planting genes requires donor proteins"
    );
    let mut rng = SplitMix64::new(config.seed);
    let code = GeneticCode::standard();

    // Background: weighted A/C/G/T by GC content.
    let at = (1.0 - config.gc_content) / 2.0;
    let gc = config.gc_content / 2.0;
    let bases = cumulative(&[at, gc, gc, at]);
    let mut genome: Vec<u8> = (0..config.len)
        .map(|_| rng.weighted(&bases) as u8)
        .collect();

    // Plant coding regions at non-overlapping positions.
    let mut plants = Vec::with_capacity(config.gene_count);
    let mut occupied: Vec<(usize, usize)> = Vec::new();
    'plant: for g in 0..config.gene_count {
        let protein_idx = g % donors.len();
        let donor = donors.get(protein_idx);
        let take = donor.len().min(config.max_plant_aa);
        if take < 20 {
            continue; // Too short to be a meaningful plant.
        }
        let mutated = mutate_protein(&mut rng, &donor.residues[..take], &config.mutation);
        let dna = back_translate(&mut rng, &mutated, code);
        if dna.is_empty() || dna.len() + 2 > genome.len() {
            continue;
        }
        // Find a free position (bounded retries keep generation O(genes²)
        // in the worst case but effectively linear at sane densities).
        for _attempt in 0..50 {
            let start = rng.range(0..=genome.len() - dna.len());
            let end = start + dna.len();
            if occupied.iter().any(|&(s, e)| start < e && s < end) {
                continue;
            }
            let forward = rng.chance(0.5);
            if forward {
                genome[start..end].copy_from_slice(&dna);
            } else {
                genome[start..end].copy_from_slice(&reverse_complement_codes(&dna));
            }
            occupied.push((start, end));
            plants.push(PlantedGene {
                protein_idx,
                start,
                end,
                forward,
                aa_len: dna.len() / 3,
            });
            continue 'plant;
        }
        // No free slot found after bounded retries: skip this plant.
    }
    // Low-complexity repeat tracts: short-period nucleotide repeats
    // (period 1-6) dropped into free space; they translate into
    // low-entropy protein in every frame.
    for _ in 0..config.repeat_tracts {
        let period = rng.range(1..=6usize);
        let unit: Vec<u8> = (0..period).map(|_| rng.range(0..4u8)).collect();
        let len = config.repeat_len.min(genome.len());
        for _attempt in 0..50 {
            let start = rng.range(0..=genome.len() - len);
            let end = start + len;
            if occupied.iter().any(|&(s, e)| start < e && s < end) {
                continue;
            }
            for (k, slot) in genome[start..end].iter_mut().enumerate() {
                *slot = unit[k % period];
            }
            occupied.push((start, end));
            break;
        }
    }

    plants.sort_by_key(|p| p.start);

    SyntheticGenome {
        genome: Seq::from_codes(
            format!("synth_genome_{:#x}", config.seed),
            genome,
            psc_seqio::SeqKind::Dna,
        ),
        plants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protein::{random_bank, BankConfig};
    use psc_seqio::{translate_six_frames, Frame};

    fn donor_bank() -> Bank {
        random_bank(&BankConfig {
            count: 10,
            min_len: 80,
            max_len: 200,
            seed: 3,
        })
    }

    #[test]
    fn background_genome_has_requested_gc() {
        let cfg = GenomeConfig {
            len: 200_000,
            gc_content: 0.6,
            gene_count: 0,
            ..Default::default()
        };
        let g = generate_genome(&cfg, &Bank::new());
        let gc = g
            .genome
            .residues
            .iter()
            .filter(|&&c| c == 1 || c == 2)
            .count() as f64
            / g.genome.len() as f64;
        assert!((gc - 0.6).abs() < 0.01, "gc {gc}");
        assert!(g.plants.is_empty());
    }

    #[test]
    fn plants_recorded_and_nonoverlapping() {
        let cfg = GenomeConfig {
            len: 100_000,
            gene_count: 20,
            seed: 9,
            ..Default::default()
        };
        let g = generate_genome(&cfg, &donor_bank());
        assert!(!g.plants.is_empty());
        for w in g.plants.windows(2) {
            assert!(w[0].end <= w[1].start, "plants overlap");
        }
        for p in &g.plants {
            assert_eq!((p.end - p.start) % 3, 0);
            assert_eq!(p.aa_len * 3, p.end - p.start);
        }
    }

    #[test]
    fn perfect_plant_translates_back_to_donor() {
        // With zero mutation, a forward plant must appear verbatim in one
        // of the three forward frames (reverse plants in a reverse frame).
        let donors = donor_bank();
        let cfg = GenomeConfig {
            len: 60_000,
            gene_count: 8,
            mutation: MutationConfig {
                divergence: 0.0,
                indel_rate: 0.0,
                indel_extend: 0.0,
            },
            seed: 11,
            ..Default::default()
        };
        let g = generate_genome(&cfg, &donors);
        assert!(!g.plants.is_empty());
        let translated = translate_six_frames(&g.genome, GeneticCode::standard());
        for plant in &g.plants {
            let donor = donors.get(plant.protein_idx);
            let expect: &[u8] = &donor.residues[..plant.aa_len.min(donor.len())];
            let frames: &[Frame] = if plant.forward {
                &[Frame::Plus(0), Frame::Plus(1), Frame::Plus(2)]
            } else {
                &[Frame::Minus(0), Frame::Minus(1), Frame::Minus(2)]
            };
            let found = frames.iter().any(|&f| {
                translated
                    .frame(f)
                    .residues
                    .windows(expect.len())
                    .any(|w| w == expect)
            });
            assert!(found, "plant {plant:?} not recovered in translation");
        }
    }

    #[test]
    fn back_translate_round_trip() {
        let mut rng = SplitMix64::new(5);
        let protein: Vec<u8> = (0..20u8).collect();
        let code = GeneticCode::standard();
        let dna = back_translate(&mut rng, &protein, code);
        assert_eq!(dna.len(), 60);
        for (i, &aa) in protein.iter().enumerate() {
            let codon = &dna[i * 3..i * 3 + 3];
            assert_eq!(code.translate_codes(codon).0, aa);
        }
    }

    #[test]
    fn repeat_tracts_are_low_complexity() {
        let cfg = GenomeConfig {
            len: 50_000,
            gene_count: 0,
            repeat_tracts: 6,
            repeat_len: 400,
            seed: 33,
            ..Default::default()
        };
        let g = generate_genome(&cfg, &Bank::new());
        // Entropy of the whole genome should dip: find at least one
        // 200-nt window with <= 6 distinct... simpler: count windows of
        // 60 nt with at most 2 distinct bases.
        let mut low = 0;
        for w in g.genome.residues.windows(60).step_by(60) {
            let mut seen = [false; 5];
            for &c in w {
                seen[c as usize] = true;
            }
            if seen.iter().filter(|&&b| b).count() <= 2 {
                low += 1;
            }
        }
        assert!(low >= 4, "expected repeat windows, found {low}");
    }

    #[test]
    fn deterministic_generation() {
        let donors = donor_bank();
        let cfg = GenomeConfig {
            len: 30_000,
            gene_count: 5,
            seed: 21,
            ..Default::default()
        };
        let a = generate_genome(&cfg, &donors);
        let b = generate_genome(&cfg, &donors);
        assert_eq!(a.genome.residues, b.genome.residues);
        assert_eq!(a.plants, b.plants);
    }
}
