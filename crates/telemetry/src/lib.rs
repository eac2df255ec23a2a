//! # psc-telemetry — observability substrate for the pipeline
//!
//! Every headline number in the reproduced paper is an observability
//! artifact: Tables 1 and 7 are per-step time breakdowns, Table 4 is
//! step-2 throughput, and the PE-array discussion hinges on utilization
//! and FIFO backpressure. This crate turns those signals into durable,
//! diffable run reports:
//!
//! * [`Recorder`] — the instrumentation trait: span timing (monotonic
//!   clocks), named `u64` counters, log2-bucketed [`Histogram`]s, and
//!   free-form metadata. [`NullRecorder`] compiles to no-ops (guarded by
//!   [`Recorder::enabled`]) so the disabled path stays off the step-2
//!   hot loop; [`MemRecorder`] accumulates everything in memory.
//! * [`RunReport`] — a schema-versioned aggregate of everything a run
//!   produced, serialized with the hand-rolled [`json`] module (the
//!   build container is offline, so no external JSON dependency).
//! * [`render`] — paper-style text views of a report: the Table 1/7
//!   percentage breakdown, Table 5-style PE utilization, and counter /
//!   histogram listings.
//! * [`trace`] — the flight recorder: a [`Tracer`] sink (mirroring
//!   [`Recorder`]'s off-hot-loop discipline) collecting per-unit span
//!   and instant events into bounded per-stage rings, laid out onto
//!   per-worker/per-FPGA lanes and exported as Chrome-trace/Perfetto
//!   JSON; a virtual clock makes traces byte-deterministic in tests.
//! * [`trace_analyze`] — cross-lane critical path, exhaustive stall
//!   attribution (`busy + stalls == lane wall`), and reconciliation
//!   against [`RunReport`] span walls.
//! * [`compare`] — regression diffing between two reports with percent
//!   deltas and configurable gates (`psc report --compare`, CI's perf
//!   gate).
//!
//! The crate is std-only and dependency-free by design; it sits below
//! `psc-core` in the workspace graph so any crate can record into it.

// The timing crate: its stopwatches and trace clock read the wall clock.
#![allow(clippy::disallowed_methods)]

pub mod compare;
pub mod json;
pub mod keys;
pub mod recorder;
pub mod render;
pub mod report;
pub mod trace;
pub mod trace_analyze;

pub use compare::{diff_reports, render_diff, CompareConfig, DeltaKind, DeltaRow, ReportDiff};
pub use json::{Json, JsonError};
pub use recorder::{Histogram, MemRecorder, NullRecorder, Recorder, Snapshot, SpanGuard, SpanStat};
pub use report::{
    BoardTelemetry, FpgaTelemetry, RunReport, SpanReport, StepReport, SCHEMA_VERSION,
};
pub use trace::{
    stage_of, InstantEvent, Lane, NullTracer, RingTracer, SpanEvent, Trace, TraceClock, Tracer,
    UnitEvent, UnitTrace, DEFAULT_TRACE_CAPACITY, VIRTUAL_LANES,
};
pub use trace_analyze::{
    analyze, reconcile, render_analysis, render_reconcile, render_timeline, stall_class,
    CriticalStep, LaneBreakdown, ReconcileRow, TraceAnalysis,
};
