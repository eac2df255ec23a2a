//! The differential lattice: "this must not change the output",
//! asserted once.
//!
//! Every backend, kernel, schedule and thread count in this tree is a
//! reschedule of one computation, so one
//! [`check`] runs a [`Point`] of the configuration lattice on a
//! [`Workload`] — through `SearchEngine::{for_genome | from_bundle}` +
//! `query_traced`, the only way in that the CLI, `psc serve` and
//! `benchmark/` use — and compares it byte for byte with the scalar
//! kernel on the scalar software backend ([`ORACLE`], the configuration
//! `benchmark/src/layers.rs::oracle_config` names).
//!
//! A point's fields come in two classes. [`Observed`] ones (host,
//! step-3 and index threads, recorder, tracer, repetition) may change
//! nothing at all: the whole wall-stripped report and the whole
//! virtual-clock trace of the same point without them must come back.
//! [`Neutral`] ones may change only what
//! `psc_telemetry::keys::CONFIG_DEPENDENT` registers: matches (E-value
//! by bits), HSPs, `PipelineStats`, the report stripped of those keys
//! and the host lanes of the virtual trace must equal the oracle's.
//!
//! The lattice is every single-[`AXES`]-value deviation from the oracle
//! plus a seeded sample of the full product, on every workload, each
//! axis of a sample drawn from its own stream ([`axis_draw`]). To add
//! an axis value, add one line to [`AXES`]; to add an axis, add a field
//! to the class it belongs to and its line.
//!
//! This file holds no `#[test]`: `tests/lattice_sweep.rs` (`cargo test
//! -p psc-core --test lattice`) checks every point, and the older
//! integration files check the slice their test names promise, each
//! including this file as a module.
#![allow(dead_code)] // each including binary uses its own part

use std::sync::OnceLock;

use psc_align::Hsp;
use psc_core::{
    build_run_report, GenomeSearchResult, KernelChoice, MemRecorder, NullRecorder, NullTracer,
    PipelineConfig, PipelineStats, Recorder, RingTracer, RunReport, SearchEngine, SeedChoice,
    Step2Backend, Step2Schedule, TraceClock, Tracer,
};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
use psc_score::blosum62;
use psc_seqio::prng::{mix, SplitMix64};
use psc_seqio::{Bank, MaskConfig, Seq};

// ---- workloads -----------------------------------------------------

/// Seeded inputs and the settings that decide *what* is computed; each
/// workload has its own oracle run.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Protein bank: count, shortest, longest, seed.
    bank: (usize, usize, usize, u64),
    /// Genome: nucleotides, planted genes, low-complexity tracts, seed.
    genome: (usize, usize, usize, u64),
    /// The span-3 subset seed (window 59) instead of the default.
    span3: bool,
    n_ctx: usize,
    threshold: i32,
    max_evalue: f64,
    mask: bool,
}

/// `bank` against `genome` at the paper's settings.
const fn paper(
    name: &'static str,
    bank: (usize, usize, usize, u64),
    genome: (usize, usize, usize, u64),
) -> Workload {
    Workload {
        name,
        bank,
        genome,
        span3: false,
        n_ctx: 28,
        threshold: 45,
        max_evalue: 1e-3,
        mask: false,
    }
}

const GENOME: Workload = paper("genome", (15, 80, 160, 17), (25_000, 6, 3, 18));
const SHORT: Workload = paper("short-subset4", (250, 30, 70, 15), (2_400, 6, 0, 16));
const SMOKE: Workload = paper("", (6, 100, 200, 9), (12_000, 3, 0, 10));
const SMALL_PE: Workload = paper("window-20", (6, 80, 150, 1), (8_000, 3, 1, 2));

/// Chosen for what they reach: a genome with repeats at the paper's
/// settings; many proteins of 30–70 residues against a short genome,
/// where the longer index list — the one gathered into lanes — is the
/// proteins' and nearly every 60- or 59-residue window of it overhangs
/// its sequence; the thresholds either side of the byte lanes' ceiling
/// of 127; soft masking; the 20-residue window of a small PE. The seeds
/// are ones under which some window pair scores exactly the threshold
/// ([`loaded`] checks), so `>` for `>=` anywhere is a divergence on
/// every one of them.
#[rustfmt::skip]
pub const WORKLOADS: [Workload; 7] = [
    GENOME,
    SHORT,
    Workload { name: "short-subset3", span3: true, ..SHORT },
    Workload { name: "threshold-127", threshold: 127, ..SMOKE },
    Workload { name: "threshold-128", threshold: 128, ..SMOKE },
    Workload { name: "masked", mask: true, ..GENOME },
    Workload { n_ctx: 8, threshold: 22, max_evalue: 10.0, ..SMALL_PE },
];

// ---- the lattice ---------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Backend {
    Scalar,
    Parallel(usize),
    /// The simulated board: PEs per FPGA, FPGAs.
    Board(usize, usize),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trace {
    Virtual,
    Wall,
    Off,
}

/// Output-neutral configuration: may change only what
/// `keys::CONFIG_DEPENDENT` registers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neutral {
    pub backend: Backend,
    pub kernel: KernelChoice,
    pub schedule: Step2Schedule,
    /// Query an engine loaded from the bundle of a fresh one.
    pub bundle: bool,
}

/// Observational configuration: may change nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observed {
    /// Host threads driving the simulated board.
    pub host_threads: usize,
    pub step3_threads: usize,
    pub index_threads: usize,
    pub recorder: bool,
    pub trace: Trace,
    /// The same run, again.
    pub repeat: bool,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    pub cfg: Neutral,
    pub obs: Observed,
}

pub const ORACLE: Point = Point {
    cfg: Neutral {
        backend: Backend::Scalar,
        kernel: KernelChoice::Scalar,
        schedule: Step2Schedule::Bucketed,
        bundle: false,
    },
    obs: Observed {
        host_threads: 1,
        step3_threads: 1,
        index_threads: 1,
        recorder: true,
        trace: Trace::Virtual,
        repeat: false,
    },
};

const BOARD: Backend = Backend::Board(64, 2);

/// One axis of the lattice: its name, whether it acts on the simulated
/// board, and its values besides the oracle's, each as the edit that
/// sets it. A board axis deviates from the oracle on [`BOARD`], and in
/// the sampled product applies where the backend drawn is a board.
pub type Axis = (&'static str, bool, &'static [fn(&mut Point)]);

/// One line per axis value.
pub const AXES: &[Axis] = &[
    (
        "step-2 backend",
        false,
        &[
            |p| p.cfg.backend = Backend::Parallel(1),
            |p| p.cfg.backend = Backend::Parallel(2),
            |p| p.cfg.backend = Backend::Parallel(3),
            |p| p.cfg.backend = Backend::Board(64, 1),
            |p| p.cfg.backend = BOARD,
            |p| p.cfg.backend = Backend::Board(128, 1),
            |p| p.cfg.backend = Backend::Board(192, 1),
            |p| p.cfg.backend = Backend::Board(192, 2),
        ],
    ),
    (
        "step-2 kernel",
        false,
        &[
            |p| p.cfg.kernel = KernelChoice::Auto,
            |p| p.cfg.kernel = KernelChoice::Profile,
            |p| p.cfg.kernel = KernelChoice::Simd,
            |p| p.cfg.kernel = KernelChoice::Wide,
        ],
    ),
    (
        "step-2 schedule",
        false,
        &[|p| p.cfg.schedule = Step2Schedule::Contiguous],
    ),
    ("engine", false, &[|p| p.cfg.bundle = true]),
    (
        "host threads",
        true,
        &[|p| p.obs.host_threads = 2, |p| p.obs.host_threads = 4],
    ),
    (
        "step-3 threads",
        false,
        &[
            |p| p.obs.step3_threads = 2,
            |p| p.obs.step3_threads = 4,
            |p| p.obs.step3_threads = 8,
        ],
    ),
    (
        "index threads",
        false,
        &[|p| p.obs.index_threads = 2, |p| p.obs.index_threads = 4],
    ),
    ("recorder", false, &[|p| p.obs.recorder = false]),
    (
        "tracer",
        false,
        &[|p| p.obs.trace = Trace::Off, |p| p.obs.trace = Trace::Wall],
    ),
    ("repetition", false, &[|p| p.obs.repeat = true]),
];

/// Points of the full product sampled per workload.
const SAMPLED: usize = 14;

/// Every point of the lattice on workload `w`, labelled: the
/// single-axis deviations in table order, then the sample.
pub fn points(w: usize) -> Vec<(String, Point)> {
    let mut out = Vec::new();
    for (name, on_board, values) in AXES {
        for (i, set) in values.iter().enumerate() {
            let mut p = ORACLE;
            if *on_board {
                p.cfg.backend = BOARD;
            }
            set(&mut p);
            out.push((format!("{name} #{i}"), p));
        }
    }
    for s in 0..SAMPLED {
        let mut p = ORACLE;
        for (name, on_board, values) in AXES {
            let drawn = axis_draw(w, s, name).range(0..=values.len()).checked_sub(1);
            let applies = !on_board || matches!(p.cfg.backend, Backend::Board(..));
            if let Some(set) = drawn.filter(|_| applies) {
                values[set](&mut p);
            }
        }
        out.push((format!("sample #{}", out.len()), p));
    }
    out
}

/// The stream an axis of sample `s` on workload `w` draws from, its own
/// per axis: adding or removing a value of one axis moves no other
/// axis's draw.
fn axis_draw(w: usize, s: usize, axis: &str) -> SplitMix64 {
    // FNV-1a of the axis name.
    let name = axis.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let seed = [w as u64, s as u64, name]
        .into_iter()
        .fold(0x1a77_1ce0, |h, x| mix(h ^ x));
    SplitMix64::new(seed)
}

fn config(w: &Workload, p: &Point) -> PipelineConfig {
    PipelineConfig {
        seed: match w.span3 {
            true => SeedChoice::Custom(psc_index::seed::subset_seed_span3()),
            false => SeedChoice::SubsetDefault,
        },
        n_ctx: w.n_ctx,
        threshold: w.threshold,
        max_evalue: w.max_evalue,
        mask: w.mask.then(MaskConfig::default),
        backend: match p.cfg.backend {
            Backend::Scalar => Step2Backend::SoftwareScalar,
            Backend::Parallel(threads) => Step2Backend::SoftwareParallel { threads },
            Backend::Board(pe_count, fpga_count) => Step2Backend::Rasc {
                pe_count,
                fpga_count,
                host_threads: p.obs.host_threads,
            },
        },
        step2_kernel: p.cfg.kernel,
        step2_schedule: p.cfg.schedule,
        step3_threads: p.obs.step3_threads,
        index_threads: p.obs.index_threads,
        ..PipelineConfig::default()
    }
}

// ---- running and comparing -----------------------------------------

/// What one run leaves to compare.
pub struct Run {
    hsps: Vec<Hsp>,
    /// The matches' `Debug` text: shortest round-trip floats, so equal
    /// text is equal bits.
    matches: String,
    stats: PipelineStats,
    /// Wall-stripped; `None` without a recorder.
    pub report: Option<RunReport>,
    /// `None` unless traced on the virtual clock.
    trace: Option<psc_telemetry::Trace>,
}

struct Loaded {
    proteins: Bank,
    genome: Seq,
    oracle: Run,
}

fn loaded(w: usize) -> &'static Loaded {
    static CELLS: [OnceLock<Loaded>; WORKLOADS.len()] =
        [const { OnceLock::new() }; WORKLOADS.len()];
    CELLS[w].get_or_init(|| {
        let (count, min_len, max_len, seed) = WORKLOADS[w].bank;
        let proteins = random_bank(&BankConfig {
            count,
            min_len,
            max_len,
            seed,
        });
        let (len, gene_count, repeat_tracts, seed) = WORKLOADS[w].genome;
        let genome = generate_genome(
            &GenomeConfig {
                len,
                gene_count,
                repeat_tracts,
                seed,
                ..GenomeConfig::default()
            },
            &proteins,
        )
        .genome;
        let workload = &WORKLOADS[w];
        let oracle = run(workload, &proteins, &genome, &ORACLE);
        // The inputs must be live, or every comparison is vacuous: step 3
        // has work, and the threshold cuts between scores that occur.
        let report = oracle.report.as_ref().expect("the oracle records");
        let cells = report.counter("step3.dp_cells");
        assert!(cells > Some(0), "{}: step 3 saw nothing", workload.name);
        let stricter = Workload {
            threshold: workload.threshold + 1,
            ..*workload
        };
        let above = run(&stricter, &proteins, &genome, &ORACLE).stats;
        let at = oracle.stats.step2.candidates - above.step2.candidates;
        assert!(at > 0, "{}: no pair scores the threshold", workload.name);
        Loaded {
            proteins,
            genome,
            oracle,
        }
    })
}

/// One untraced query on a fresh engine over `genome`: a one-shot
/// `psc search`.
pub fn search(proteins: &Bank, genome: &Seq, cfg: PipelineConfig) -> GenomeSearchResult {
    let engine = SearchEngine::for_genome(genome, blosum62(), cfg, &NullRecorder);
    let answer = engine.query_traced(proteins, &NullRecorder, &NullTracer);
    answer.expect("a valid configuration")
}

fn run(w: &Workload, proteins: &Bank, genome: &Seq, p: &Point) -> Run {
    let cfg = config(w, p);
    let recorder = MemRecorder::new();
    let rec: &dyn Recorder = match p.obs.recorder {
        true => &recorder,
        false => &NullRecorder,
    };
    let ring = RingTracer::new(match p.obs.trace {
        Trace::Wall => TraceClock::Wall,
        _ => TraceClock::Virtual,
    });
    let tracer: &dyn Tracer = match p.obs.trace {
        Trace::Off => &NullTracer,
        _ => &ring,
    };
    let engine = match p.cfg.bundle {
        // As `psc index` then `psc search --index`: the build is
        // another process's, and records nothing here.
        true => {
            let built = SearchEngine::for_genome(genome, blosum62(), cfg.clone(), &NullRecorder);
            SearchEngine::from_bundle(&built.to_bundle_bytes(None), blosum62(), cfg.clone())
                .expect("a bundle this build wrote")
        }
        false => SearchEngine::for_genome(genome, blosum62(), cfg.clone(), rec),
    };
    let result = engine
        .query_traced(proteins, rec, tracer)
        .expect("a valid configuration");
    let report = p.obs.recorder.then(|| {
        let mut report = build_run_report(&result.output, &cfg, &recorder.snapshot());
        report.strip_wall_clock();
        report
    });
    Run {
        matches: format!("{:#?}", result.matches),
        hsps: result.output.hsps,
        stats: result.output.stats,
        report,
        trace: (p.obs.trace == Trace::Virtual).then(|| ring.finish(&[])),
    }
}

/// `a == b`, or the first line at which they part.
fn same_text(what: &str, label: &str, a: &str, b: &str) {
    if a != b {
        let at = a.lines().zip(b.lines()).position(|(x, y)| x != y);
        let at = at.unwrap_or(a.lines().count().min(b.lines().count()));
        let line = |s: &str| s.lines().nth(at).unwrap_or("<end>").to_string();
        panic!(
            "{label}: {what} diverged at line {}:\n  want {}\n  got  {}",
            at + 1,
            line(a),
            line(b)
        );
    }
}

/// Compare two runs: in everything (`whole`), or in what an
/// output-neutral configuration must keep.
fn same_run(label: &str, want: &Run, got: &Run, whole: bool) {
    assert_eq!(want.hsps, got.hsps, "{label}: HSPs diverged");
    same_text("matches", label, &want.matches, &got.matches);
    assert_eq!(want.stats, got.stats, "{label}: stats diverged");
    if let (Some(want), Some(got)) = (&want.report, &got.report) {
        let json = |r: &RunReport| {
            let mut r = r.clone();
            if !whole {
                r.strip_config_dependent();
            }
            r.to_json_string()
        };
        same_text("stripped report", label, &json(want), &json(got));
    }
    if let (Some(want), Some(got)) = (&want.trace, &got.trace) {
        let chrome = |t: &psc_telemetry::Trace| {
            let mut t = t.clone();
            t.lanes.retain(|lane| whole || !lane.sim_clock);
            t.to_chrome_string()
        };
        same_text("virtual trace", label, &chrome(want), &chrome(got));
    }
}

/// Run `p` on workload `w` and hold it to the oracle — and, if it sets
/// anything observational, to the same point without that.
pub fn check(w: usize, label: &str, p: &Point) -> Run {
    let Loaded {
        proteins,
        genome,
        oracle,
    } = loaded(w);
    let label = format!("{} / {label} {p:?}", WORKLOADS[w].name);
    let got = run(&WORKLOADS[w], proteins, genome, p);
    let unobserved = Point {
        obs: ORACLE.obs,
        ..*p
    };
    // Only observed: the oracle itself is the point without that.
    same_run(&label, oracle, &got, unobserved == ORACLE);
    if unobserved != ORACLE && unobserved != *p {
        let want = run(&WORKLOADS[w], proteins, genome, &unobserved);
        same_run(&label, &want, &got, true);
    }
    got
}

/// [`check`] every point of the lattice that `select` picks, and hand
/// back the runs for what a slice asserts beyond equivalence.
pub fn check_where(select: impl Fn(&Workload, &Point) -> bool) -> Vec<(Point, Run)> {
    let mut checked = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (label, p) in points(w) {
            if select(workload, &p) {
                checked.push((p, check(w, &label, &p)));
            }
        }
    }
    assert!(!checked.is_empty(), "an empty slice checks nothing");
    checked
}
