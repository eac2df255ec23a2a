//! The measurement ladder behind Tables 2–5 and 7 and Figure 3: every
//! bank size run through the baseline, the sequential pipeline, and the
//! simulated RASC-100 at the published array sizes. `tests/paper_claims.rs`
//! asserts the board claims of Tables 3 and 4 on the same ladder.

use psc_blast::{tblastn, BlastConfig};
use psc_core::{
    GenomeSearchResult, NullRecorder, NullTracer, PipelineConfig, SearchEngine, SeedChoice,
    Step2Backend, StepProfile,
};
use psc_index::subset_seed_span3;
use psc_rasc::BoardReport;
use psc_score::blosum62;
use psc_seqio::{translate_six_frames, Bank, GeneticCode, Seq};

use crate::data::Workload;
use crate::scale::Scale;

/// The PE-array sizes the paper publishes.
pub const PE_SIZES: [usize; 3] = [64, 128, 192];

/// Pipeline configuration used by every ladder experiment (see
/// `Scale` docs for why the span-3 seed).
pub fn experiment_config() -> PipelineConfig {
    // The workload is ~1/20 of the paper's residue counts, so the
    // one-time board setup (bitstream load) is scaled the same way —
    // at paper scale it amortizes to <1% exactly as it did for the
    // authors' 168-70000 s runs.
    let dma = psc_rasc::DmaModel {
        bitstream_load: 0.04,
        ..psc_rasc::DmaModel::default()
    };
    PipelineConfig {
        seed: SeedChoice::Custom(subset_seed_span3()),
        dma_override: Some(dma),
        ..PipelineConfig::default()
    }
}

/// One query on a fresh engine over `genome`, as `psc search` runs it.
pub fn search(proteins: &Bank, genome: &Seq, cfg: PipelineConfig) -> GenomeSearchResult {
    let engine = SearchEngine::for_genome(genome, blosum62(), cfg, &NullRecorder);
    let answer = engine.query_traced(proteins, &NullRecorder, &NullTracer);
    answer.unwrap_or_else(|e| panic!("pipeline configuration error: {e}"))
}

/// One accelerated run.
#[derive(Clone, Debug)]
pub struct RascRun {
    pub pe_count: usize,
    pub fpga_count: usize,
    pub profile: StepProfile,
    pub board: BoardReport,
}

/// All measurements for one bank size.
#[derive(Clone, Debug, Default)]
pub struct LadderRow {
    pub label: String,
    /// Bank size in kilo-amino-acids (Table 5's Kaa).
    pub kaa: f64,
    /// Wall seconds of the baseline (tblastn) run.
    pub baseline: Option<f64>,
    /// The sequential pipeline's per-step profile.
    pub scalar: Option<StepProfile>,
    /// Single-FPGA runs at [`PE_SIZES`].
    pub rasc: Vec<RascRun>,
    /// The Table 3 pair: 192 PEs with the paper's raised threshold, one
    /// and two FPGAs.
    pub dual: Option<(RascRun, RascRun)>,
}

/// Which measurements to take (each costs a full step-2 pass).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Components {
    pub baseline: bool,
    pub scalar: bool,
    pub rasc: bool,
    pub dual: bool,
}

impl Components {
    pub const NONE: Components = Components {
        baseline: false,
        scalar: false,
        rasc: false,
        dual: false,
    };

    /// Everything either side asks for.
    pub fn or(self, other: Components) -> Components {
        Components {
            baseline: self.baseline || other.baseline,
            scalar: self.scalar || other.scalar,
            rasc: self.rasc || other.rasc,
            dual: self.dual || other.dual,
        }
    }
}

fn rasc_run(
    workload: &Workload,
    bank: usize,
    pe_count: usize,
    fpga_count: usize,
    threshold_bump: i32,
) -> RascRun {
    let mut cfg = experiment_config();
    cfg.threshold += threshold_bump;
    // The host threads only speed up the simulation; every simulated
    // cycle and second is the same at any count.
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    cfg.backend = Step2Backend::Rasc {
        pe_count,
        fpga_count,
        host_threads,
    };
    let r = search(&workload.banks[bank], &workload.genome.genome, cfg);
    RascRun {
        pe_count,
        fpga_count,
        profile: r.output.profile,
        board: r.output.board.expect("RASC backend reports"),
    }
}

/// Run the ladder. Progress goes to stderr; results come back per row.
pub fn run_ladder(scale: &Scale, workload: &Workload, comps: Components) -> Vec<LadderRow> {
    let labels = scale.labels();
    let mut rows = Vec::with_capacity(4);
    for (bank, label) in labels.iter().enumerate() {
        let mut row = LadderRow {
            label: label.clone(),
            kaa: workload.bank_kaa(bank),
            ..LadderRow::default()
        };
        eprintln!("[ladder] {} ({:.0} Kaa)", row.label, row.kaa);

        if comps.baseline {
            eprintln!("[ladder]   baseline tblastn…");
            let translated = translate_six_frames(&workload.genome.genome, GeneticCode::standard());
            let rep = tblastn(
                &workload.banks[bank],
                &translated.to_bank(),
                blosum62(),
                &BlastConfig::default(),
            );
            row.baseline = Some(rep.total_seconds());
        }

        if comps.scalar {
            eprintln!("[ladder]   sequential pipeline…");
            // Pin the plain scalar kernel: this row reproduces the
            // paper's "Sequential" software numbers, which the SIMD
            // batch engine would otherwise quietly accelerate.
            let cfg = PipelineConfig {
                step2_kernel: psc_core::KernelChoice::Scalar,
                ..experiment_config()
            };
            let r = search(&workload.banks[bank], &workload.genome.genome, cfg);
            row.scalar = Some(r.output.profile);
        }

        if comps.rasc {
            for pe in PE_SIZES {
                eprintln!("[ladder]   RASC {pe} PEs…");
                row.rasc.push(rasc_run(workload, bank, pe, 1, 0));
            }
        }

        if comps.dual {
            // The paper's Table 3 protocol: raise the ungapped threshold
            // to lighten result traffic, then compare 1 vs 2 FPGAs.
            eprintln!("[ladder]   dual-FPGA (raised threshold)…");
            let one = rasc_run(workload, bank, 192, 1, 10);
            let two = rasc_run(workload, bank, 192, 2, 10);
            row.dual = Some((one, two));
        }

        rows.push(row);
    }
    rows
}
