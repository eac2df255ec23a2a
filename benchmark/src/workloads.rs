//! The four workloads and the metrics, as data.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics for the driver; a test below keeps the two in step.

use crate::gen::{Shape, PLANT_DIVERGENCE};
use crate::layers::Setup;

/// Never more worker threads or client connections than this (the host
/// this was sized on has 2 cores).
pub const WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One search per operation: FASTA files in, GFF3 out, nothing
    /// prepared beforehand.
    OneShot,
    /// One query per operation against an engine loaded from a bundle.
    Served,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub setup: Setup,
    pub shape: Shape,
    /// One-shot: every `oracle_sample`-th protein is re-searched with the
    /// scalar oracle when the seed has no blessed digest. Served: this
    /// many of the first queries are.
    pub oracle_sample: usize,
}

const fn shape(proteins: usize, genome_nt: usize, plants: usize, queries: usize) -> Shape {
    Shape {
        proteins,
        min_len: 100,
        max_len: 600,
        genome_nt,
        plants,
        max_plant_aa: 300,
        queries,
        plant_divergence: PLANT_DIVERGENCE,
    }
}

/// Sizes were chosen on a 2-core host so that one operation of each
/// one-shot workload takes about a second at one thread: a run of
/// `run_seconds` then holds enough repeats for a steady median.
const FULL: [Workload; 4] = [
    Workload {
        name: "bank_heavy",
        why: "Paper's regime: 1000 proteins x 1 Mnt, 1.3e8 window pairs; SIMD score kernel + step-3 extension are >90% of the wall, parse/translate/index <5%. Kernel and step-3 work shows here, indexing must not.",
        kind: Kind::OneShot,
        setup: Setup::Software,
        shape: shape(1000, 1_000_000, 120, 0),
        oracle_sample: 20,
    },
    Workload {
        name: "genome_heavy",
        why: "Opposite shape: 12 proteins x 8 Mnt; short IL0 x long IL1 makes step 2 gather-bound (~25 Mpairs/s against ~200) and index build + translate >15% of the wall. Locality and index work shows here only.",
        kind: Kind::OneShot,
        setup: Setup::Software,
        shape: shape(12, 8_000_000, 48, 0),
        oracle_sample: 2,
    },
    Workload {
        name: "board_sim",
        why: "The paper's system: step 2 on the simulated RASC-100 (2 x 192 PEs), 100 proteins x 100 knt. Host wall is >90% simulator; simulated seconds repeat exactly. Bypasses the software step-2 kernels.",
        kind: Kind::OneShot,
        setup: Setup::Board,
        shape: shape(100, 100_000, 60, 0),
        oracle_sample: 1,
    },
    Workload {
        name: "served_small_queries",
        why: "Same engine the opposite way: a 2 Mnt genome loaded from a bundle, 3-protein queries from 2 closed-loop clients. Fixed per-query cost (IL1 gather per key, query-side index, allocation) dominates.",
        kind: Kind::Served,
        setup: Setup::Software,
        shape: shape(200, 2_000_000, 200, 2400),
        oracle_sample: 6,
    },
];

/// `--quick`: a tenth of the work, for a smoke run. Its numbers are
/// labelled `quick` and are never compared against full runs.
const QUICK: [Workload; 4] = [
    Workload {
        shape: shape(100, 1_000_000, 24, 0),
        oracle_sample: 4,
        ..FULL[0]
    },
    Workload {
        shape: shape(12, 800_000, 12, 0),
        ..FULL[1]
    },
    Workload {
        shape: shape(30, 30_000, 15, 0),
        ..FULL[2]
    },
    Workload {
        shape: shape(40, 200_000, 40, 600),
        oracle_sample: 4,
        ..FULL[3]
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }

    pub fn workloads(self) -> &'static [Workload; 4] {
        match self {
            Scale::Full => &FULL,
            Scale::Quick => &QUICK,
        }
    }

    pub fn workload(self, name: &str) -> Option<&'static Workload> {
        self.workloads().iter().find(|w| w.name == name)
    }
}

/// Where a number comes from. Measured and simulated seconds are never
/// added, divided or shown in one column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// Host wall clock or host memory, read while the program ran.
    Measured,
    /// Device time or device counts of the simulated RASC-100.
    Simulated,
    /// A count made by the program, or arithmetic on sizes; repeats
    /// exactly for one seed.
    Computed,
}

impl Tag {
    pub fn name(self) -> &'static str {
        match self {
            Tag::Measured => "measured",
            Tag::Simulated => "simulated",
            Tag::Computed => "computed",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub tag: Tag,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "search_wall_s",
        unit: "s",
        tag: Tag::Measured,
        higher_is_better: false,
        bound: 0.25,
        what: "wall of one operation with one worker, lower quartile of the repeats: a search FASTA paths in -> GFF3 text out, engine build included (one-shot); a query -> GFF3 from a single client (served)",
    },
    EndToEnd {
        name: "search_wall_par_s",
        unit: "s",
        tag: Tag::Measured,
        higher_is_better: false,
        bound: 0.25,
        what: "the same operation with two workers, lower quartile: the search on 2 threads (one-shot); a query while a second closed-loop client uses the same engine (served)",
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        tag: Tag::Measured,
        higher_is_better: true,
        bound: 0.25,
        what: "operations per second with two workers: 2-thread searches back to back, 1 / search_wall_par_s (one-shot); queries completed / wall of the 2-client closed loop (served)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        tag: Tag::Measured,
        higher_is_better: false,
        bound: 0.10,
        what: "VmHWM of the measuring child: after one 1-thread and one 2-thread search in a fresh process (one-shot); at exit (served). Input generation and the oracle run in the parent",
    },
    EndToEnd {
        name: "planted_recall",
        unit: "fraction",
        tag: Tag::Computed,
        higher_is_better: true,
        bound: 0.05,
        what: "planted genes overlapped by a reported match of their donor protein on the right strand / planted genes searched for",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        tag: Tag::Measured,
        higher_is_better: false,
        bound: 0.25,
        what: "median set-up (3 to 25 per run): generate inputs, write FASTA (served: also build the engine, write and load the bundle), and compute the scalar oracle",
    },
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub tag: Tag,
    pub higher_is_better: bool,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    tag: Tag,
    higher_is_better: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        tag,
        higher_is_better,
        moves,
    }
}

const M: Tag = Tag::Measured;
const S: Tag = Tag::Simulated;
const C: Tag = Tag::Computed;

const PARSE: &str = "search_wall_s on genome_heavy; nothing on bank_heavy";
const INDEX: &str = "search_wall_s, search_wall_par_s on genome_heavy; build_t0 -> search_wall_s on served_small_queries; nothing on bank_heavy";
const BUNDLE: &str = "setup_s on served_small_queries";
const STEP2: &str = "search_wall_s on bank_heavy and genome_heavy";
const GATHER: &str = "high share => search_wall_s on genome_heavy, search_wall_s and queries_per_s on served_small_queries; low share predicted on bank_heavy";
const KERNEL: &str = "search_wall_s on bank_heavy; no effect predicted on served_small_queries";
const PAR: &str = "search_wall_par_s, queries_per_s on bank_heavy and genome_heavy";
const STEP3: &str = "search_wall_s on bank_heavy and genome_heavy";
const ENGINE: &str = "search_wall_s everywhere (its two halves)";
const SERVE: &str = "search_wall_s (fixed cost), search_wall_par_s and queries_per_s (contention) on served_small_queries";
const GFF: &str = "search_wall_s (expected ~0; present so the books close)";
const RASC_HOST: &str = "search_wall_s on board_sim with rasc.sim_s unchanged";
const RASC_SIM: &str = "rasc.sim_s on board_sim (the modelled design, not the simulator)";
const BLAST: &str = "none: reference only (the paper's Table 2 denominator)";
const NONE: &str = "none today";
const CLOSURE: &str =
    "none: the run fails if the layers leave more than 10% of a traced one-shot search unexplained";

pub const PER_LAYER: [PerLayer; 66] = [
    layer("seqio.parse_s", "s", M, false, PARSE),
    layer("seqio.parse_mb_per_s", "MB/s", M, true, PARSE),
    layer("seqio.translate_s", "s", M, false, PARSE),
    layer("seqio.translate_mnt_per_s", "Mnt/s", M, true, PARSE),
    layer("index.build_t1_s", "s", M, false, INDEX),
    layer("index.build_t0_s", "s", M, false, INDEX),
    layer("index.positions_t1", "count", C, false, INDEX),
    layer("index.positions_t0", "count", C, false, INDEX),
    layer("index.mpos_per_s", "Mpos/s", M, true, INDEX),
    layer("index.bundle_write_s", "s", M, false, BUNDLE),
    layer("index.bundle_load_s", "s", M, false, BUNDLE),
    layer("index.bundle_mb", "MB", C, false, BUNDLE),
    layer("index.load_vs_build", "ratio", M, false, BUNDLE),
    layer("step2.wall_s", "s", M, false, STEP2),
    layer("step2.pairs", "count", C, false, STEP2),
    layer("step2.mpairs_per_s", "Mpairs/s", M, true, STEP2),
    layer("step2.candidates", "count", C, false, STEP2),
    layer("step2.active_keys", "count", C, false, STEP2),
    layer("step2.survivor_ppm", "ppm", C, false, STEP2),
    layer("step2.gather_replay_s", "s", M, false, GATHER),
    layer("step2.gather_mb", "MB", C, false, GATHER),
    layer("step2.gather_share", "ratio", M, false, GATHER),
    layer("align.kernel_mpairs_per_s", "Mpairs/s", M, true, KERNEL),
    layer("step2.wall_par_s", "s", M, false, PAR),
    layer("step2.par_eff", "ratio", M, true, PAR),
    layer("step3.wall_par_s", "s", M, false, PAR),
    layer("step3.par_eff", "ratio", M, true, PAR),
    layer("step3.wall_s", "s", M, false, STEP3),
    layer("step3.anchors", "count", C, false, STEP3),
    layer("step3.hsps", "count", C, false, STEP3),
    layer("step3.us_per_anchor", "us", M, false, STEP3),
    layer("engine.build_s", "s", M, false, ENGINE),
    layer("engine.query_s", "s", M, false, ENGINE),
    layer("engine.step1_s", "s", M, false, ENGINE),
    layer("engine.query_1prot_ms", "ms", M, false, SERVE),
    layer("engine.query_solo_p50_ms", "ms", M, false, SERVE),
    layer("engine.contention_ratio", "ratio", M, false, SERVE),
    layer("engine.query_p90_ms", "ms", M, false, SERVE),
    layer("engine.query_p99_ms", "ms", M, false, SERVE),
    layer("engine.query_max_ms", "ms", M, false, SERVE),
    layer("gff.format_s", "s", M, false, GFF),
    layer("gff.kb", "kB", C, false, GFF),
    layer("rasc.host_s", "s", M, false, RASC_HOST),
    layer("rasc.sim_s", "s", S, false, RASC_SIM),
    layer("rasc.mcycles", "Mcycles", S, false, RASC_SIM),
    layer("rasc.host_s_per_mcycle", "s/Mcycle", M, false, RASC_HOST),
    layer("rasc.host_mpairs_per_s", "Mpairs/s", M, true, RASC_HOST),
    layer("rasc.pe_utilization", "ratio", S, true, RASC_SIM),
    layer("rasc.stall_cycles", "count", S, false, RASC_SIM),
    layer("rasc.entries", "count", S, false, RASC_SIM),
    layer("rasc.mb_in", "MB", S, false, RASC_SIM),
    layer("rasc.mb_out", "MB", S, false, RASC_SIM),
    layer("rasc.fifo_peak", "count", S, false, RASC_SIM),
    layer("rasc.overlap_occupancy", "ratio", S, true, RASC_SIM),
    layer("rasc.sync_s", "s", S, false, RASC_SIM),
    layer("rasc.wire_s", "s", S, false, RASC_SIM),
    layer("blast.total_s", "s", M, false, BLAST),
    layer("blast.scan_s", "s", M, false, BLAST),
    layer("blast.gapped_s", "s", M, false, BLAST),
    layer("blast.word_hits", "count", C, false, BLAST),
    layer("blast.hsps", "count", C, false, BLAST),
    layer(
        "pipeline.kaamnt_per_s",
        "KaaMnt/s",
        M,
        true,
        "mirrors search_wall_s (the paper's Table 5 unit)",
    ),
    layer("telemetry.record_overhead_pct", "%", M, false, NONE),
    layer("closure.layers_sum_s", "s", M, false, CLOSURE),
    layer("closure.gap_pct", "%", M, false, CLOSURE),
    layer("trace.overhead_pct", "%", M, false, CLOSURE),
];

/// The workloads and metrics as a reader's tables: why each workload
/// exists, what each end-to-end metric is, and which end-to-end metric
/// on which workload each layer metric should move.
pub fn describe() -> String {
    let mut out = String::from("workloads\n");
    for w in &FULL {
        out += &format!("  {:<22} {}\n", w.name, w.why);
    }
    out += "\nend-to-end metrics (bound = largest worsening that is not a regression)\n";
    for e in &END_TO_END {
        out += &format!(
            "  {:<20} {:<9} {:<9} {} is better, bound {:.0}%\n    {}\n",
            e.name,
            e.unit,
            e.tag.name(),
            if e.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            e.bound * 100.0,
            e.what
        );
    }
    out += "\nper-layer metrics (from the traced run) -> what each should move\n";
    for p in &PER_LAYER {
        out += &format!(
            "  {:<30} {:<9} {:<9} {:<6} -> {}\n",
            p.name,
            p.unit,
            p.tag.name(),
            if p.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            p.moves
        );
    }
    out
}

/// Largest share of a traced search the layer spans may leave
/// unexplained (or over-explain) on a one-shot workload.
pub const CLOSURE_TOLERANCE_PCT: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_lists_the_workloads_defined_here() {
        let m = manifest();
        let listed: Vec<(&str, &str)> = m
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let defined: Vec<(&str, &str)> = FULL.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, defined);
        for w in &FULL {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert_eq!(Scale::Quick.workload(w.name).unwrap().kind, w.kind);
        }
    }

    #[test]
    fn benchmark_json_lists_the_metrics_defined_here() {
        let m = manifest();
        let better = |hib: bool| if hib { "higher" } else { "lower" };
        let listed: Vec<(String, String, String, f64)> = m
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| {
                (
                    field(e, "name").to_string(),
                    field(e, "unit").to_string(),
                    field(e, "better").to_string(),
                    e.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let defined: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|e| {
                (
                    e.name.to_string(),
                    e.unit.to_string(),
                    better(e.higher_is_better).to_string(),
                    e.bound,
                )
            })
            .collect();
        assert_eq!(listed, defined);

        let listed: Vec<(&str, &str, &str)> = m
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let defined: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|p| (p.name, p.unit, better(p.higher_is_better)))
            .collect();
        assert_eq!(listed, defined);
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        names.extend(FULL.iter().map(|w| w.name));
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|p| p.unit))
        {
            assert!(ok_unit(u), "{u}");
        }
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s"));
    }
}
