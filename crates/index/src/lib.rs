//! # psc-index — seed models and bank indexing (the paper's step 1)
//!
//! The algorithm's first step "indexes the sequences of the two banks":
//! for a seed model with key space `K`, it builds a `K`-entry table whose
//! entry `k` lists every position (an *index list*, `IL_k`) where a window
//! hashing to `k` occurs. Step 2 then walks matching `IL0_k × IL1_k`
//! pairs.
//!
//! * [`FlatBank`]: a bank flattened to one residue array with global
//!   `u32` positions — the coordinate system index lists use;
//! * [`seed`]: seed models — exact W-mers and the subset seeds of
//!   Peterlongo et al. \[11\] over reduced amino-acid alphabets (the
//!   paper uses one subset seed of span 4);
//! * [`table`]: the CSR-layout index table with a parallel two-pass
//!   builder, whose scatter can index a bank a few sequences at a time;
//! * [`bundle`]: the one on-disk artifact — frames, tables and scoring
//!   behind the checksummed frame of [`serial`];
//! * [`neighborhood`]: BLAST-style neighbourhood word generation (used by
//!   the `psc-blast` baseline, not by the paper's pipeline).

#![cfg_attr(test, allow(clippy::disallowed_methods))]

#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod bundle;
pub mod flat;
#[cfg(all(test, target_os = "linux"))]
#[path = "../../align/src/guard.rs"]
mod guard;
pub mod neighborhood;
pub mod seed;
pub mod serial;
pub mod table;

pub use bundle::{deserialize_bundle, serialize_bundle, BundleT0, IndexBundle};
pub use flat::FlatBank;
pub use seed::{subset_seed_default, subset_seed_span3, ExactSeed, SeedModel, SubsetSeed};
pub use serial::{fletcher64, SerialError};
pub use table::{KeyCounts, SeedIndex};
