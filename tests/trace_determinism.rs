//! Flight-recorder guarantees at pipeline level: virtual-clock traces
//! are byte-deterministic across thread counts and backends and tracing
//! never changes pipeline output (slices of the differential lattice,
//! `tests/lattice.rs`); wall-clock traces
//! reconcile against the run report, and every lane's time is
//! exhaustively attributed (`busy + stalls == lane wall`).

#[path = "lattice.rs"]
mod lattice;

use lattice::{check_where, Backend};
use psc_core::{
    build_run_report, MemRecorder, NullRecorder, PipelineConfig, PipelineOutput, Recorder,
    RingTracer, SearchEngine, Step2Backend, TraceClock,
};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
use psc_score::blosum62;
use psc_telemetry::{analyze, reconcile, Trace};

fn base_config() -> PipelineConfig {
    PipelineConfig {
        n_ctx: 8,
        threshold: 22,
        max_evalue: 10.0,
        ..PipelineConfig::default()
    }
}

/// Ten proteins of 80–150 aa against a 30 kb genome holding six planted
/// copies of them: enough anchors for fourteen step-3 shards.
fn run_traced(cfg: PipelineConfig, rec: &dyn Recorder, tracer: &RingTracer) -> PipelineOutput {
    let proteins = random_bank(&BankConfig {
        count: 10,
        min_len: 80,
        max_len: 150,
        seed: 2201,
    });
    let genome = GenomeConfig {
        len: 30_000,
        gene_count: 6,
        seed: 2202,
        ..GenomeConfig::default()
    };
    let genome = generate_genome(&genome, &proteins).genome;
    let engine = SearchEngine::for_genome(&genome, blosum62(), cfg, rec);
    engine.query_traced(&proteins, rec, tracer).unwrap().output
}

/// The virtual clock models scheduled work, not measured time, so the
/// exported trace must be byte-identical across worker counts and
/// schedules: the host lanes of every software point are the oracle's.
#[test]
fn virtual_trace_is_byte_deterministic_across_thread_counts() {
    let runs = check_where(|_, p| {
        let traced = p.obs.trace == lattice::Trace::Virtual;
        matches!(p.cfg.backend, Backend::Parallel(_)) && traced
    });
    assert!(runs.iter().any(|(p, _)| p.obs.step3_threads > 1));
}

/// The simulated board runs on its own deterministic clock, so its
/// lanes are byte-stable whatever drives it.
#[test]
fn virtual_board_lanes_are_deterministic() {
    let runs = check_where(|_, p| p.obs.host_threads > 1 && p.obs.trace == lattice::Trace::Virtual);
    assert!(runs
        .iter()
        .any(|(p, _)| matches!(p.cfg.backend, Backend::Board(..))));
}

/// Tracing only observes: with the flight recorder off, or on the wall
/// clock, everything else a run leaves is what the virtual-clock run
/// left — for every backend.
#[test]
fn tracing_does_not_change_pipeline_output() {
    let runs = check_where(|w, p| {
        ["genome", "window-20"].contains(&w.name) && p.obs.trace != lattice::Trace::Virtual
    });
    assert!(runs
        .iter()
        .any(|(p, _)| matches!(p.cfg.backend, Backend::Board(..))));
}

/// Wall-clock traces must reconcile with the run report: the step-3
/// extend spans and merge wait are the very same measurements the
/// report sums, and step-2 busy is bounded by the report's step-2 wall.
#[test]
fn wall_trace_reconciles_with_run_report() {
    let cfg = PipelineConfig {
        backend: Step2Backend::SoftwareParallel { threads: 2 },
        step3_threads: 2,
        ..base_config()
    };
    let rec = MemRecorder::new();
    let tracer = RingTracer::new(TraceClock::Wall);
    let out = run_traced(cfg.clone(), &rec, &tracer);
    let report = build_run_report(&out, &cfg, &rec.snapshot());
    let analysis = analyze(&tracer.finish(&[]));
    let rows = reconcile(&analysis, &report);
    assert!(rows.len() >= 3, "expected step2/step3 rows, got {rows:?}");
    for row in &rows {
        assert!(row.ok, "reconciliation failed: {row:?}");
    }
}

/// Every non-busy second of every lane lands in a named stall class:
/// `busy + stalls == lane wall`, enforced on a real traced run on the
/// board with parallel step 3 (the richest stall mix).
#[test]
fn stall_attribution_is_exhaustive() {
    let tracer = RingTracer::new(TraceClock::Wall);
    let cfg = PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 64,
            fpga_count: 2,
            host_threads: 2,
        },
        step3_threads: 2,
        ..base_config()
    };
    run_traced(cfg, &NullRecorder, &tracer);
    let trace = tracer.finish(&[]);
    let analysis = analyze(&trace);
    assert!(
        analysis.lanes.len() >= 4,
        "lanes: {:?}",
        analysis.lanes.len()
    );
    for lane in &analysis.lanes {
        let err = (lane.accounted_us() - lane.wall_us).abs();
        assert!(
            err <= 1e-6 * lane.wall_us.max(1.0),
            "lane {} leaks time: busy {} + stalls {} != wall {}",
            lane.name,
            lane.busy_us,
            lane.stall_us(),
            lane.wall_us
        );
    }
    // Timestamps are monotonic within each exported lane.
    for lane in &trace.lanes {
        for w in lane.spans.windows(2) {
            assert!(
                w[0].start_us <= w[1].start_us,
                "lane {} spans out of order",
                lane.name
            );
        }
    }
}

/// The per-stage rings drop oldest-first under pressure and say so in
/// the export; a clipped trace still parses and analyzes.
#[test]
fn ring_overflow_drops_oldest_and_counts() {
    // A two-slot ring, so step 3 commits far more shard units than
    // the ring holds.
    let tracer = RingTracer::with_capacity(TraceClock::Wall, 2);
    let cfg = PipelineConfig {
        backend: Step2Backend::SoftwareParallel { threads: 2 },
        step3_threads: 2,
        ..base_config()
    };
    let out = run_traced(cfg, &NullRecorder, &tracer);
    assert!(out.stats.anchors > 0);
    let trace = tracer.finish(&[]);
    assert!(
        trace.dropped > 0,
        "tiny rings must overflow on this workload"
    );
    assert_eq!(trace.dropped, tracer.dropped());
    let text = trace.to_chrome_string();
    let back = Trace::from_chrome_str(&text).unwrap();
    assert_eq!(back.dropped, trace.dropped);
    let analysis = analyze(&back);
    assert_eq!(analysis.dropped, trace.dropped);
    // The survivors are the newest units: the retained step-3 spans are
    // the last shards, so their hull ends where the full run ends.
    assert!(analysis.lanes.iter().any(|l| l.stage == "step3"));
}
