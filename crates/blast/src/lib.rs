//! # psc-blast — a tblastn-like baseline
//!
//! The paper compares its RASC-100 pipeline against NCBI `tblastn`
//! 2.2.18. That binary (and its genomic inputs) are not available here,
//! so this crate reimplements the algorithm class from scratch, following
//! the published BLAST structure:
//!
//! 1. build a lookup table of **neighbourhood words** over the query
//!    bank (3-mers scoring ≥ T against a query word, `psc-index`'s
//!    neighbourhood generator);
//! 2. scan the translated genome; on each word hit consult per-diagonal
//!    bookkeeping and apply the **two-hit rule** (two word hits on one
//!    diagonal within a window trigger an extension);
//! 3. **X-drop ungapped extension**; segments above the gap trigger go to
//!    **gapped X-drop extension**;
//! 4. Karlin–Altschul E-values, culling, reporting.
//!
//! The output type is the same [`psc_align::Hsp`] the pipeline produces,
//! so the quality harness (paper Table 6) can score both tools on one
//! benchmark.

pub mod lookup;
pub mod search;
pub mod twohit;

pub use lookup::QueryLookup;
pub use search::{tblastn, BlastConfig, BlastReport};
