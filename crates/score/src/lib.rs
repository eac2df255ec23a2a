//! # psc-score — substitution matrices and alignment statistics
//!
//! Scoring substrate for the RASC-100 reproduction:
//!
//! * [`SubstitutionMatrix`]: dense 24×24 amino-acid substitution scores,
//!   addressed by the residue codes of `psc-seqio`. BLOSUM62 (the matrix
//!   the paper and NCBI `tblastn` default to) ships built in; any other
//!   NCBI-format matrix can be parsed from text.
//! * [`karlin`]: Karlin–Altschul statistics — the `λ`, `K` and `H`
//!   parameters that turn raw alignment scores into bit scores and
//!   E-values, computed numerically from the matrix and background
//!   residue frequencies (with published gapped parameter sets for the
//!   common matrices).

pub mod freqs;
pub mod karlin;
pub mod matrix;
pub mod parser;

pub use freqs::ROBINSON_FREQS;
pub use karlin::{effective_search_space, length_adjustment, GappedParams, KarlinParams};
pub use matrix::{blosum62, SubstitutionMatrix};
pub use parser::parse_ncbi_matrix;
