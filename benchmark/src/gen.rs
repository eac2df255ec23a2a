//! The benchmark's own input generator.
//!
//! Inputs are made here, from the seed alone, and handed to the program
//! only as FASTA text: nothing in this file calls a `psc-*` crate, so a
//! change to `psc-datagen` or its PRNG cannot move a benchmark input.
//! Proteins draw residues from the Robinson & Robinson background;
//! a genome is a 41 %-GC background into which *plants* are spliced —
//! mutated copies of a donor protein, back-translated with the standard
//! genetic code onto either strand. The plant list is the ground truth
//! behind `planted_recall`.

use std::io::{self, Write};

/// SplitMix64 (Steele, Lea & Flood 2014): 64 bits of state, one
/// multiply-xorshift round per output.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻⁴⁰ for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// An independent stream for one part of the inputs, so resizing one
    /// part leaves the others as they were.
    pub fn fork(seed: u64, part: u64) -> SplitMix64 {
        let mut mix = SplitMix64::new(seed ^ part.wrapping_mul(0xd6e8_feb8_6659_fd93));
        SplitMix64::new(mix.next_u64())
    }
}

/// The 20 standard residues and their Robinson & Robinson (1991)
/// frequencies.
const RESIDUES: &[u8; 20] = b"ARNDCQEGHILKMFPSTWYV";
const ROBINSON: [f64; 20] = [
    0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295, 0.07377, 0.02199, 0.05142,
    0.09019, 0.05744, 0.02243, 0.03856, 0.05203, 0.07120, 0.05841, 0.01330, 0.03216, 0.06441,
];

/// The standard genetic code in TCAG order (NCBI translation table 1).
const BASES_TCAG: &[u8; 4] = b"TCAG";
const CODE_TCAG: &[u8; 64] = b"FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG";

/// Share of G+C in the genome background (human-like).
const GC: f64 = 0.41;

/// Mutation applied to a plant relative to its donor.
pub const PLANT_DIVERGENCE: f64 = 0.25;
/// Mutation applied to a served query's homolog relative to the donor
/// (so every query is a distinct sequence).
pub const QUERY_DIVERGENCE: f64 = 0.10;
const INDEL_RATE: f64 = 0.004;
const INDEL_EXTEND: f64 = 0.3;
const INDEL_MAX: usize = 10;

fn background_residue(rng: &mut SplitMix64) -> u8 {
    let x = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut acc = 0.0;
    for (i, f) in ROBINSON.iter().enumerate() {
        acc += f;
        if x < acc {
            return RESIDUES[i];
        }
    }
    RESIDUES[19] // the table sums to 1 − 2·10⁻⁵
}

/// A protein of `len` background residues, as ASCII letters.
pub fn random_protein(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| background_residue(rng)).collect()
}

/// `n` lengths evenly spaced over `min_len..=max_len`, in random order.
/// Every seed gets the same lengths, so a bank has the same number of
/// residues — and a search nearly the same work — whatever the seed;
/// only the order and the residues differ.
fn spaced_lengths(rng: &mut SplitMix64, n: usize, min_len: usize, max_len: usize) -> Vec<usize> {
    let mut lengths: Vec<usize> = (0..n)
        .map(|i| min_len + (max_len - min_len) * (2 * i + 1) / (2 * n))
        .collect();
    for i in (1..n).rev() {
        lengths.swap(i, rng.below(i as u64 + 1) as usize);
    }
    lengths
}

/// A diverged copy: each residue is substituted with probability
/// `divergence` by a different background residue; rare short indels.
/// `divergence == 0` returns the input unchanged.
pub fn mutate(rng: &mut SplitMix64, protein: &[u8], divergence: f64) -> Vec<u8> {
    if divergence == 0.0 {
        return protein.to_vec();
    }
    let mut out = Vec::with_capacity(protein.len() + INDEL_MAX);
    let mut i = 0;
    while i < protein.len() {
        if rng.chance(INDEL_RATE) {
            let mut len = 1;
            while len < INDEL_MAX && rng.chance(INDEL_EXTEND) {
                len += 1;
            }
            if rng.chance(0.5) {
                out.extend((0..len).map(|_| background_residue(rng)));
            } else {
                i += len;
            }
            continue;
        }
        let c = protein[i];
        if rng.chance(divergence) {
            let mut s = background_residue(rng);
            while s == c {
                s = background_residue(rng);
            }
            out.push(s);
        } else {
            out.push(c);
        }
        i += 1;
    }
    out
}

/// Synonymous codons of every residue letter, from [`CODE_TCAG`].
fn codon_table() -> Vec<Vec<[u8; 3]>> {
    let mut table = vec![Vec::new(); 128];
    for (i, &aa) in CODE_TCAG.iter().enumerate() {
        let codon = [BASES_TCAG[i / 16], BASES_TCAG[i / 4 % 4], BASES_TCAG[i % 4]];
        table[aa as usize].push(codon);
    }
    table
}

/// DNA that translates to `protein`, each codon uniform among the
/// synonymous ones.
fn back_translate(rng: &mut SplitMix64, table: &[Vec<[u8; 3]>], protein: &[u8]) -> Vec<u8> {
    let mut dna = Vec::with_capacity(protein.len() * 3);
    for &aa in protein {
        let codons = &table[aa as usize];
        dna.extend_from_slice(&codons[rng.below(codons.len() as u64) as usize]);
    }
    dna
}

fn reverse_complement(dna: &[u8]) -> Vec<u8> {
    dna.iter()
        .rev()
        .map(|&b| match b {
            b'A' => b'T',
            b'C' => b'G',
            b'G' => b'C',
            _ => b'A',
        })
        .collect()
}

fn background_genome(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    // Four bases per draw, 16 bits each.
    let at = ((1.0 - GC) / 2.0 * 65536.0) as u64;
    let gc = (GC / 2.0 * 65536.0) as u64;
    let (a_end, c_end, g_end) = (at, at + gc, at + 2 * gc);
    let mut genome = Vec::with_capacity(len + 3);
    while genome.len() < len {
        let mut bits = rng.next_u64();
        for _ in 0..4 {
            let x = bits & 0xffff;
            bits >>= 16;
            genome.push(if x < a_end {
                b'A'
            } else if x < c_end {
                b'C'
            } else if x < g_end {
                b'G'
            } else {
                b'T'
            });
        }
    }
    genome.truncate(len);
    genome
}

/// One named protein, residues as ASCII letters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Protein {
    pub id: String,
    pub residues: Vec<u8>,
}

/// Where a plant sits: forward-strand interval `[start, end)` in
/// nucleotides and the coding strand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plant {
    pub start: usize,
    pub end: usize,
    pub forward: bool,
}

/// What to generate.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Proteins in the bank (one-shot) or donors behind the plants
    /// (served, where the donors themselves are never written out).
    pub proteins: usize,
    pub min_len: usize,
    pub max_len: usize,
    pub genome_nt: usize,
    /// Plants in the genome; plant `g` copies donor `g % proteins`.
    pub plants: usize,
    /// Longest prefix of a donor that is planted.
    pub max_plant_aa: usize,
    /// Served workload: this many queries of three proteins each, one
    /// of them a homolog of a planted donor. 0 = one-shot workload, the
    /// donors are the bank.
    pub queries: usize,
    /// Divergence of a plant from its donor.
    pub plant_divergence: f64,
}

/// Generated inputs and their ground truth.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The protein FASTA, in file order. Served: three per query.
    pub proteins: Vec<Protein>,
    pub genome_id: String,
    pub genome: Vec<u8>,
    pub plants: Vec<Plant>,
    /// `(protein index, plant index)` pairs a perfect search reports.
    pub expected: Vec<(usize, usize)>,
}

/// Proteins per served query.
pub const QUERY_PROTEINS: usize = 3;

pub fn generate(seed: u64, shape: &Shape) -> Inputs {
    let mut rng = SplitMix64::fork(seed, 1);
    let donors: Vec<Vec<u8>> =
        spaced_lengths(&mut rng, shape.proteins, shape.min_len, shape.max_len)
            .into_iter()
            .map(|len| random_protein(&mut rng, len))
            .collect();

    let mut genome = background_genome(&mut SplitMix64::fork(seed, 2), shape.genome_nt);

    // One plant per equal slot of the genome, at a random offset inside
    // it: plants never overlap and no placement is ever retried.
    let mut rng = SplitMix64::fork(seed, 3);
    let codons = codon_table();
    let slot = shape.genome_nt / shape.plants.max(1);
    let mut plants = Vec::with_capacity(shape.plants);
    for g in 0..shape.plants {
        let donor = &donors[g % donors.len()];
        let take = donor.len().min(shape.max_plant_aa);
        let copy = mutate(&mut rng, &donor[..take], shape.plant_divergence);
        let dna = back_translate(&mut rng, &codons, &copy);
        assert!(
            dna.len() < slot,
            "plant of {} nt does not fit a {slot} nt slot",
            dna.len()
        );
        let start = g * slot + rng.below((slot - dna.len()) as u64) as usize;
        let forward = rng.chance(0.5);
        let piece = if forward {
            dna
        } else {
            reverse_complement(&dna)
        };
        genome[start..start + piece.len()].copy_from_slice(&piece);
        plants.push(Plant {
            start,
            end: start + piece.len(),
            forward,
        });
    }

    let (proteins, expected) = if shape.queries == 0 {
        let bank = donors
            .into_iter()
            .enumerate()
            .map(|(i, residues)| Protein {
                id: format!("p{i:05}"),
                residues,
            })
            .collect();
        let expected = (0..shape.plants).map(|g| (g % shape.proteins, g)).collect();
        (bank, expected)
    } else {
        // Every query totals the same number of residues (three
        // proteins of mean length), so query cost varies with how that
        // total is split and what it hits, not with how much there is.
        let total = QUERY_PROTEINS * (shape.min_len + shape.max_len) / 2;
        let mut rng = SplitMix64::fork(seed, 4);
        let mut proteins = Vec::with_capacity(shape.queries * QUERY_PROTEINS);
        let mut expected = Vec::with_capacity(shape.queries);
        for q in 0..shape.queries {
            let plant = q % shape.plants;
            let homolog = mutate(&mut rng, &donors[plant % donors.len()], QUERY_DIVERGENCE);
            let rest = total - homolog.len();
            let lo = shape.min_len.max(rest.saturating_sub(shape.max_len));
            let hi = shape.max_len.min(rest - shape.min_len);
            let second = lo + rng.below((hi - lo + 1) as u64) as usize;
            let mut members = vec![
                random_protein(&mut rng, second),
                random_protein(&mut rng, rest - second),
            ];
            let homolog_slot = q % QUERY_PROTEINS;
            members.insert(homolog_slot, homolog);
            for (j, residues) in members.into_iter().enumerate() {
                proteins.push(Protein {
                    id: format!("q{q:05}_{j}"),
                    residues,
                });
            }
            expected.push((q * QUERY_PROTEINS + homolog_slot, plant));
        }
        (proteins, expected)
    };

    Inputs {
        proteins,
        genome_id: format!("genome_{seed:#x}"),
        genome,
        plants,
        expected,
    }
}

const FASTA_WIDTH: usize = 70;

pub fn write_fasta_record<W: Write>(w: &mut W, id: &str, letters: &[u8]) -> io::Result<()> {
    writeln!(w, ">{id}")?;
    for line in letters.chunks(FASTA_WIDTH) {
        w.write_all(line)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

pub fn proteins_fasta(proteins: &[Protein]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in proteins {
        write_fasta_record(&mut out, &p.id, &p.residues).expect("writing to a Vec cannot fail");
    }
    out
}

pub fn genome_fasta(inputs: &Inputs) -> Vec<u8> {
    let mut out = Vec::with_capacity(inputs.genome.len() + inputs.genome.len() / FASTA_WIDTH + 64);
    write_fasta_record(&mut out, &inputs.genome_id, &inputs.genome)
        .expect("writing to a Vec cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fletcher64;

    pub(crate) fn small_shape() -> Shape {
        Shape {
            proteins: 12,
            min_len: 80,
            max_len: 160,
            genome_nt: 30_000,
            plants: 8,
            max_plant_aa: 300,
            queries: 0,
            plant_divergence: PLANT_DIVERGENCE,
        }
    }

    #[test]
    fn splitmix_matches_the_published_vectors() {
        // First outputs for seed 1234567, from the reference C code.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_inputs_and_different_seeds_differ() {
        let shape = small_shape();
        let a = generate(7, &shape);
        let b = generate(7, &shape);
        assert_eq!(a.proteins, b.proteins);
        assert_eq!(a.genome, b.genome);
        assert_eq!(a.plants, b.plants);
        let c = generate(8, &shape);
        assert_ne!(a.proteins, c.proteins);
        assert_ne!(a.genome, c.genome);
    }

    #[test]
    fn golden_hash_of_both_fasta_files_for_the_default_seed() {
        let inputs = generate(crate::DEFAULT_SEED, &small_shape());
        assert_eq!(
            fletcher64(&proteins_fasta(&inputs.proteins)),
            0xf3e45c367b6240f5
        );
        assert_eq!(fletcher64(&genome_fasta(&inputs)), 0x711dc1bd1e71443e);
    }

    #[test]
    fn every_seed_gets_the_same_lengths_in_another_order() {
        let shape = small_shape();
        let lengths = |seed| -> Vec<usize> {
            generate(seed, &shape)
                .proteins
                .iter()
                .map(|p| p.residues.len())
                .collect()
        };
        let (a, b) = (lengths(1), lengths(2));
        assert_ne!(a, b);
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(a.clone()), sorted(b));
        assert!(a.iter().all(|&l| (80..=160).contains(&l)));
        assert!(a.iter().sum::<usize>().abs_diff(12 * 120) < 12);
    }

    #[test]
    fn plants_sit_in_their_slots_on_both_strands() {
        let shape = Shape {
            plants: 40,
            genome_nt: 100_000,
            ..small_shape()
        };
        let inputs = generate(3, &shape);
        assert_eq!(inputs.plants.len(), 40);
        for w in inputs.plants.windows(2) {
            assert!(w[0].end <= w[1].start, "plants overlap");
        }
        assert!(inputs.plants.iter().any(|p| p.forward));
        assert!(inputs.plants.iter().any(|p| !p.forward));
        assert_eq!(inputs.expected[13], (13 % 12, 13));
    }

    #[test]
    fn background_has_the_stated_gc_and_residue_mix() {
        let genome = background_genome(&mut SplitMix64::new(5), 200_000);
        let gc = genome.iter().filter(|&&b| b == b'G' || b == b'C').count();
        assert!((gc as f64 / 200_000.0 - GC).abs() < 0.01);
        let mut rng = SplitMix64::new(6);
        let protein: Vec<u8> = (0..100_000).map(|_| background_residue(&mut rng)).collect();
        let leu = protein.iter().filter(|&&c| c == b'L').count();
        let trp = protein.iter().filter(|&&c| c == b'W').count();
        assert!((leu as f64 / 1e5 - 0.09019).abs() < 0.005);
        assert!((trp as f64 / 1e5 - 0.01330).abs() < 0.003);
    }

    #[test]
    fn mutation_changes_about_the_stated_share() {
        let mut rng = SplitMix64::new(9);
        let donor = random_protein(&mut rng, 5000);
        assert_eq!(mutate(&mut rng, &donor, 0.0), donor);
        let copy = mutate(&mut rng, &donor, 0.25);
        // Indels (4 per 1000 residues) shift the tail, so compare a head
        // short enough to be unlikely to hold one.
        let same = donor[..40]
            .iter()
            .zip(&copy[..40])
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            (24..40).contains(&same),
            "{same} of the first 40 residues unchanged"
        );
        assert!(copy.len().abs_diff(donor.len()) < 100);
        assert_ne!(copy, donor);
    }

    #[test]
    fn served_queries_are_distinct_and_name_their_plant() {
        let shape = Shape {
            queries: 20,
            ..small_shape()
        };
        let inputs = generate(11, &shape);
        assert_eq!(inputs.proteins.len(), 60);
        assert_eq!(inputs.expected.len(), 20);
        assert_eq!(inputs.expected[9], (9 * 3, 9 % 8));
        assert_eq!(inputs.expected[10], (10 * 3 + 1, 10 % 8));
        // Queries 1 and 9 share a donor but are different sequences.
        let (a, b) = (&inputs.proteins[3 + 1], &inputs.proteins[27]);
        assert_ne!(a.residues, b.residues);
        assert_eq!(a.id, "q00001_1");
        // Every query has the same number of residues.
        for query in inputs.proteins.chunks(QUERY_PROTEINS) {
            let total: usize = query.iter().map(|p| p.residues.len()).sum();
            assert_eq!(total, 3 * 120);
            assert!(query.iter().all(|p| p.residues.len() >= 70));
        }
    }
}
