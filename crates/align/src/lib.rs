//! # psc-align — extension kernels and alignment algorithms
//!
//! The compute layer of the reproduction:
//!
//! * [`ungapped`]: the paper's fixed-window ungapped extension kernel
//!   (step 2 — the code the PSC operator implements in hardware), in the
//!   two published variants, plus the X-drop ungapped extension NCBI
//!   BLAST uses (for the baseline);
//! * [`batch`]: the batched ungapped engine — interleaved window
//!   layout and the threshold filter that classifies 32/64 window pairs
//!   at once in saturating byte lanes and rescores the survivors (the
//!   software analogue of the PE array's data flow), with runtime
//!   dispatch over AVX2 / AVX-512 VBMI / portable lane arrays; score
//!   profiles for the scalar kernel;
//! * [`gapped`]: gapped extension (step 3) — affine-gap X-drop extension
//!   to find high-scoring ranges, banded global alignment for traceback;
//! * [`xdrop`]: the X-drop sweep under that extension — a scalar row
//!   body that defines it and AVX-512F / AVX2 bodies that compute each
//!   DP row in `i32` lanes to the same digits;
//! * [`hsp`]: high-scoring segment pair bookkeeping — scores, E-values,
//!   deduplication and culling.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod batch;
pub mod gapped;
#[cfg(all(test, target_os = "linux"))]
mod guard;
pub mod hsp;
pub mod report;
pub mod ungapped;
pub mod xdrop;

pub use batch::{
    profile_score, profile_score2, score_batch, simd_available, wide_available, InterleavedWindows,
    KernelBackend, KernelChoice, LaneFilter, ScoreProfile, LANES, MAX_BLOCKS, WIDE_LANES,
};
pub use gapped::{
    banded_global, gapped_extend, AlignOp, Alignment, ExtendScratch, GapConfig, GappedHit,
};
pub use hsp::{cull_hsps, Hsp};
pub use report::{format_pairwise, AlignmentSummary};
pub use ungapped::{ungapped_score, xdrop_ungapped, Kernel, UngappedHit};
