//! # psc-seqio — biological sequence substrate
//!
//! Foundation crate for the RASC-100 seed-based comparison reproduction:
//! residue alphabets and their compact encodings, sequence and bank
//! containers, FASTA parsing/serialisation, the standard genetic code, and
//! six-frame translation of nucleotide sequences with coordinate mapping
//! back to the genome.
//!
//! Everything downstream (indexing, scoring, the PSC operator simulator)
//! works on the compact `u8` residue codes defined by [`alphabet`]; ASCII
//! only appears at the I/O boundary.
//!
//! As the crate every other one depends on, it also carries [`prng`],
//! the one seeded random source, and [`isa`], the one ISA level.

pub mod alphabet;
pub mod bank;
pub mod codon;
pub mod complexity;
pub mod error;
pub mod fasta;
pub mod isa;
pub mod prng;
pub mod seq;
pub mod translate;

pub use alphabet::{Aa, Nt, AA_ALPHABET_LEN, NT_ALPHABET_LEN};
pub use bank::Bank;
pub use codon::GeneticCode;
pub use complexity::{mask_low_complexity, MaskConfig};
pub use error::SeqError;
pub use fasta::{read_fasta, read_fasta_path, write_fasta};
pub use seq::{Seq, SeqKind};
pub use translate::{
    strand_tables, translate_six_frames, translate_six_frames_into, Frame, FrameCoord,
    TranslatedGenome,
};
