//! # psc-core — the paper's seed-based bank-vs-bank comparison pipeline
//!
//! This crate is the primary contribution of the reproduced paper: a
//! BLAST-heuristic protein comparison that — unlike NCBI BLAST's
//! one-query-against-a-bank scan — treats **both** data sets as indexed
//! banks, which concentrates the dominant cost into a small, regular
//! critical section that parallel hardware can absorb. Three steps
//! (paper §2.1):
//!
//! 1. **Indexing** — both banks are indexed under one seed model
//!    (`psc-index`), giving, for every seed key `k`, index lists `IL0_k`
//!    and `IL1_k` of window positions;
//! 2. **Ungapped extension** — for every key, all `|IL0_k| × |IL1_k|`
//!    window pairs are scored with the fixed-window kernel; pairs at or
//!    above a threshold survive. This step runs on a pluggable
//!    [`Step2Backend`]: scalar software, multithreaded software, or the
//!    simulated RASC-100 board (`psc-rasc`);
//! 3. **Gapped extension** — surviving pairs are deduplicated per
//!    diagonal and extended with affine-gap X-drop DP (`psc-align`),
//!    E-value filtered, culled and reported.
//!
//! [`SearchEngine`] is the one way in, for the paper's actual workload:
//! a protein bank against the six-frame translation of a genome, with
//! results mapped back to genomic coordinates. Build it with
//! [`SearchEngine::for_genome`], [`SearchEngine::from_translated`] or
//! [`SearchEngine::from_bundle`], then call
//! [`SearchEngine::query_traced`] once per query bank.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod config;
pub mod engine;
pub mod genome;
pub mod gff;
pub mod pipeline;
pub mod profile;
pub mod report;
pub mod step2;

pub use config::{PipelineConfig, SeedChoice, Step2Backend};
pub use engine::{EngineError, SearchEngine};
pub use genome::{GenomeMatch, GenomeSearchResult};
pub use gff::to_gff3;
pub use pipeline::{Pipeline, PipelineError, PipelineOutput, PipelineStats, PreparedBank};
pub use profile::StepProfile;
pub use psc_align::{KernelBackend, KernelChoice};
pub use psc_telemetry::{
    MemRecorder, NullRecorder, NullTracer, Recorder, RingTracer, RunReport, TraceClock, Tracer,
};
pub use report::build_run_report;
pub use step2::Step2Schedule;
