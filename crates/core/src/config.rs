//! Pipeline configuration.

use psc_align::{GapConfig, Kernel, KernelChoice};
use psc_index::seed::{subset_seed_default, ExactSeed, SeedModel, SubsetSeed};
use psc_rasc::{BoardConfig, OperatorConfig};

/// Which seed model step 1 indexes with.
#[derive(Clone, Debug, Default)]
pub enum SeedChoice {
    /// The paper's subset seed of span 4 (default).
    #[default]
    SubsetDefault,
    /// Exact W-mer (ablation baseline).
    Exact(usize),
    /// A caller-supplied subset seed.
    Custom(SubsetSeed),
}

impl SeedChoice {
    /// Materialize the seed model.
    pub fn model(&self) -> Box<dyn SeedModel> {
        match self {
            SeedChoice::SubsetDefault => Box::new(subset_seed_default()),
            SeedChoice::Exact(w) => Box::new(ExactSeed::new(*w)),
            SeedChoice::Custom(s) => Box::new(s.clone()),
        }
    }
}

/// Where step 2 (ungapped extension) runs.
#[derive(Clone, Debug, Default)]
pub enum Step2Backend {
    /// Single-threaded software (the paper's "Sequential" columns).
    #[default]
    SoftwareScalar,
    /// Multithreaded software over seed keys.
    SoftwareParallel { threads: usize },
    /// The simulated RASC-100 board. `host_threads` only speeds up the
    /// simulation; reported hardware time is deterministic.
    Rasc {
        pe_count: usize,
        fpga_count: usize,
        host_threads: usize,
    },
}

impl Step2Backend {
    /// Stable name for run reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Step2Backend::SoftwareScalar => "software-scalar",
            Step2Backend::SoftwareParallel { .. } => "software-parallel",
            Step2Backend::Rasc { .. } => "rasc",
        }
    }
}

/// Full pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Seed model (step 1).
    pub seed: SeedChoice,
    /// Context residues on each side of the seed; window length is
    /// `seed.span() + 2 * n_ctx` (the shift-register size of one PE).
    pub n_ctx: usize,
    /// Raw windowed score a pair needs to survive step 2.
    pub threshold: i32,
    /// Ungapped kernel variant.
    pub kernel: Kernel,
    /// Kernel implementation for the software step-2 backends
    /// (scalar / profile / simd; auto-detected by default). Ignored by
    /// the RASC backend, which has its own datapath.
    pub step2_kernel: KernelChoice,
    /// Work-distribution schedule for the software step-2 backends:
    /// contiguous key-range chunks (the historical walk) or
    /// mass-bucketed work items pulled off an atomic counter
    /// (the default; balances heavy-tailed key masses). Candidates are
    /// bit-identical either way.
    pub step2_schedule: crate::step2::Step2Schedule,
    /// Step-2 backend.
    pub backend: Step2Backend,
    /// Gapped extension parameters (step 3).
    pub gap: GapConfig,
    /// Report alignments with E-value at most this (paper: 1e-3).
    pub max_evalue: f64,
    /// Threads for index construction (step 1).
    pub index_threads: usize,
    /// Workers for step-3 gapped extension. Anchors are cut into
    /// fixed-size shards and merged by shard index, so HSP output,
    /// counters, and telemetry are bit-identical at any thread count.
    pub step3_threads: usize,
    /// Minimum subject-position separation between gapped-extension
    /// anchors on one (seq0, seq1, diagonal) line; candidates closer than
    /// this to the previous anchor are folded into it.
    pub min_anchor_sep: u32,
    /// Result FIFO capacity of the simulated operator.
    pub fifo_capacity: usize,
    /// PEs per slot in the simulated operator (register-barrier groups).
    pub slot_size: usize,
    /// Soft low-complexity masking: when set, both banks are entropy
    /// masked for *seeding and step 2 only* (step-3 extensions see the
    /// original residues), mirroring BLAST's soft-masking default.
    pub mask: Option<psc_seqio::MaskConfig>,
    /// Override the board's DMA/transfer model (bandwidth, dispatch
    /// latency, bitstream-load time). `None` keeps the physical
    /// RASC-100 defaults; scaled-down experiments scale the one-time
    /// setup cost along with the workload (`psc_bench::ladder`).
    pub dma_override: Option<psc_rasc::DmaModel>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            seed: SeedChoice::SubsetDefault,
            n_ctx: 28,
            threshold: 45,
            kernel: Kernel::ClampedSum,
            step2_kernel: KernelChoice::Auto,
            step2_schedule: crate::step2::Step2Schedule::default(),
            backend: Step2Backend::SoftwareScalar,
            gap: GapConfig::default(),
            max_evalue: 1e-3,
            index_threads: 1,
            step3_threads: 1,
            min_anchor_sep: 60,
            fifo_capacity: 512,
            slot_size: 16,
            mask: None,
            dma_override: None,
        }
    }
}

impl PipelineConfig {
    /// Window length `W + 2N` under the configured seed model.
    pub fn window_len(&self) -> usize {
        self.seed.model().span() + 2 * self.n_ctx
    }

    /// Operator configuration the RASC backend instantiates.
    pub fn operator_config(&self, pe_count: usize) -> OperatorConfig {
        let mut op = OperatorConfig::new(pe_count);
        op.window_len = self.window_len();
        op.threshold = self.threshold;
        op.kernel = self.kernel;
        op.fifo_capacity = self.fifo_capacity;
        op.slot_size = self.slot_size;
        op
    }

    /// Board configuration for the RASC backend.
    pub fn board_config(&self, pe_count: usize, fpga_count: usize) -> BoardConfig {
        let mut cfg = BoardConfig::new(self.operator_config(pe_count), fpga_count);
        if let Some(dma) = self.dma_override {
            cfg.dma = dma;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_window_is_sixty() {
        let c = PipelineConfig::default();
        assert_eq!(c.window_len(), 4 + 2 * 28);
    }

    #[test]
    fn seed_choices_materialize() {
        assert_eq!(SeedChoice::SubsetDefault.model().span(), 4);
        assert_eq!(SeedChoice::Exact(3).model().span(), 3);
        assert_eq!(SeedChoice::Exact(3).model().key_count(), 8000);
        let custom = SeedChoice::Custom(subset_seed_default());
        assert_eq!(custom.model().key_count(), 22500);
    }

    #[test]
    fn operator_config_inherits_pipeline_settings() {
        let c = PipelineConfig {
            threshold: 31,
            n_ctx: 10,
            ..PipelineConfig::default()
        };
        let op = c.operator_config(128);
        assert_eq!(op.pe_count, 128);
        assert_eq!(op.threshold, 31);
        assert_eq!(op.window_len, 24);
        let b = c.board_config(64, 2);
        assert_eq!(b.fpga_count, 2);
        assert_eq!(b.operator.pe_count, 64);
    }
}
