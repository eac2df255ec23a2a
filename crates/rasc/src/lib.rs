//! # psc-rasc — a simulator of the SGI RASC-100 PSC operator
//!
//! The paper offloads its critical section (step 2, ungapped extension)
//! to a **Parallel Sequence Comparison operator** on the RASC-100: an
//! array of processing elements working SIMD-fashion, grouped into slots
//! separated by register barriers, with threshold filtering and cascaded
//! result FIFOs, fed by DMA over NUMAlink from an Altix host (paper
//! Figures 1–3). The hardware is long gone; this crate reproduces it as
//! a simulator with two execution paths:
//!
//! * [`operator::PscOperator`] — **cycle-accurate**: every PE steps one
//!   residue pair per clock through a shift register + substitution ROM +
//!   accumulator/max datapath; slots fire results at wave boundaries into
//!   a bounded result buffer drained one item per cycle by the output
//!   controller, stalling the array when full (the exact pathology that
//!   limited the paper's dual-FPGA runs, §4.1).
//! * [`functional::FunctionalOperator`] — **functional + analytic**: the
//!   same results scored with the batched lane kernels of
//!   [`psc_align::batch`] (the operator's own data flow in software, in
//!   bounded scratch the operator reuses), re-ordered into the hardware's
//!   drain order, and the same cycle count replayed in closed form from
//!   the per-wave hit counts. Unit and property tests assert both paths
//!   agree *exactly* (results, order, cycles, stalls, FIFO peak); every
//!   board run takes this path, so a simulator wall measures the
//!   design and not a scalar loop.
//!
//! [`board::RascBoard`] wraps one or two simulated FPGAs with the
//! NUMAlink DMA model, host-side dispatch threads, and the
//! result-channel contention that makes the paper's 2-FPGA speedup
//! saturate at 1.8×.
//! [`resource::ResourceModel`] checks that a PE configuration fits a
//! Virtex-4 LX200 (the paper builds 64-, 128- and 192-PE bitstreams).

pub mod board;
pub mod config;
pub mod dma;
pub mod fifo;
pub mod functional;
pub mod operator;
pub mod pe;
pub mod resource;

pub use board::{BoardConfig, BoardReport, BoardSegment, Entry, RascBoard};
pub use config::{OperatorConfig, DEFAULT_CLOCK_HZ};
pub use dma::{DmaModel, NUMALINK_BANDWIDTH};
pub use functional::FunctionalOperator;
pub use operator::{pe_utilization, EntryResult, Hit, PscOperator};
pub use resource::{ResourceError, ResourceModel, Utilization};
