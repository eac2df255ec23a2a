//! # psc-quality — sensitivity/selectivity evaluation (paper Table 6)
//!
//! The paper validates that the RASC pipeline loses nothing to NCBI
//! BLAST by scoring both on a 102-query benchmark against the yeast
//! genome with ROC50 and AP-Mean. The annotation there was human; here
//! the ground truth is *constructed*: synthetic protein families are
//! generated, their members planted into a synthetic genome as coding
//! regions, and a hit counts as a true positive exactly when it lands on
//! a planted member of the query's family.
//!
//! * [`metrics`]: ROC_n and average precision on ranked hit lists;
//! * [`benchmark`]: benchmark construction and the tool-agnostic
//!   evaluation driver.

pub mod benchmark;
pub mod metrics;

pub use benchmark::{
    build_benchmark, evaluate_ranked, Benchmark, BenchmarkConfig, QualityScores, RankedHit,
};
pub use metrics::{average_precision, roc_n};
