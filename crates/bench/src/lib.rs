//! # psc-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! on the synthetic, scaled-down workload described in DESIGN.md §1.
//! The `experiments` binary drives everything; per-component rates are
//! the per-layer metrics of `benchmark/` (see BENCHMARK.json).
//!
//! Scale: the paper compares banks of 1k/3k/10k/30k proteins (0.3–10 M
//! amino acids) against the 220 Mnt Human chromosome 1 on a 2009 Itanium.
//! This harness keeps the 1:3:10:30 bank ladder and the full algorithm,
//! at a reduced residue count, and uses the span-3 subset seed so
//! index-list lengths land in the same PE-array-utilization regime as
//! the paper's runs (see `psc_index::seed::subset_seed_span3`).

pub mod data;
pub mod exps;
pub mod ladder;
pub mod report;
pub mod scale;

pub use scale::Scale;
