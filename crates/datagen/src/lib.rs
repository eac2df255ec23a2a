//! # psc-datagen — seeded synthetic genomic data
//!
//! The paper evaluates on the Human chromosome 1 and four NCBI `nr`
//! protein banks; neither is available offline, so every experiment in
//! this reproduction runs on synthetic data produced here (see DESIGN.md
//! §1 for the substitution argument). Everything is deterministic given a
//! `u64` seed.
//!
//! * [`protein`]: random proteins with Robinson–Robinson composition,
//!   banks of the paper's 1×/3×/10×/30× size ladder;
//! * [`mutate`]: a BLOSUM62-tilted point-substitution + indel model used
//!   to derive homologs at a controlled divergence;
//! * [`genome`]: random genomes with protein-coding regions *planted* by
//!   back-translation — ground truth for sensitivity experiments;
//! * [`family`]: protein families (one ancestor, many diverged members)
//!   with membership as ground truth for the ROC50 / AP-Mean benchmark
//!   (paper Table 6).

pub mod family;
pub mod genome;
pub mod mutate;
pub mod protein;

pub use family::{generate_families, Family, FamilyConfig};
pub use genome::{generate_genome, GenomeConfig, PlantedGene, SyntheticGenome};
pub use mutate::{mutate_protein, MutationConfig};
pub use protein::{random_bank, random_protein, BankConfig};
