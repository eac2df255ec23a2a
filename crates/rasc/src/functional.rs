//! Functional + analytic fast path.
//!
//! Computes exactly the hits, the hit order and the cycle count of
//! [`crate::operator::PscOperator`] without stepping a PE register:
//!
//! * **scoring** runs on the threshold filter of [`psc_align::batch`]
//!   — the software form of the operator's own data flow (one `IL0`
//!   window resident, every `IL1` window streamed past it, only the
//!   pairs above the threshold pushed out). `IL1` is interleaved one
//!   bounded tile at a time into scratch the operator owns and reuses
//!   across entries; each `IL0` window is scanned over the tile by one
//!   [`LaneFilter`], which classifies in byte lanes and rescores the
//!   rare survivors. The backend is what [`KernelChoice::Auto`]
//!   resolves to for the configured window and matrix, once at
//!   construction, so a window that could overflow the 16-bit lanes
//!   (or a host without the vector extensions) falls back to the
//!   profile kernel by itself;
//! * **ordering** sorts the kept hits into the hardware's drain order —
//!   batch-major, wave-major within a batch, PE order within a wave;
//! * **accounting** replays the cycle / stall / FIFO high-water model
//!   of [`crate::operator`] in closed form from the per-wave hit counts.
//!
//! The equivalence with the cycle-accurate operator is enforced by the
//! unit tests here and the property tests in `tests/equivalence.rs`;
//! every board run takes this path.

// A hot module: no panic path outside test code (DESIGN §9).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use psc_align::{
    score_batch, InterleavedWindows, Kernel, KernelBackend, KernelChoice, LaneFilter, ScoreProfile,
    WIDE_LANES,
};
use psc_score::SubstitutionMatrix;

use crate::config::OperatorConfig;
use crate::operator::{EntryResult, Hit};

/// Target bytes of interleaved `IL1` per tile — the size
/// `psc_core::step2` tiles its lane stream to, so a tile stays
/// cache-resident while every `IL0` window scans it.
const TILE_BYTES: usize = 32 << 10;

/// Most windows interleaved at once, whatever the window length.
const TILE_MAX_WINDOWS: usize = 512;

/// Batched threshold scorer over one entry's window lists: the scoring
/// half of [`FunctionalOperator::run_entry`]. Owns its scratch, which
/// is bounded by the tile size and reused from call to call.
#[derive(Debug)]
pub(crate) struct BatchScorer {
    backend: KernelBackend,
    kernel: Kernel,
    matrix: SubstitutionMatrix,
    window_len: usize,
    threshold: i32,
    /// `IL1` windows per tile: a whole number of lane blocks at either
    /// block width.
    tile_windows: usize,
    /// The lane path; `None` under the scalar-width backends, which
    /// score through `profile` and `scores` instead.
    filter: Option<LaneFilter>,
    tile: InterleavedWindows,
    lane_window: Vec<u8>,
    profile: ScoreProfile,
    scores: Vec<i32>,
}

impl BatchScorer {
    /// A scorer for `config` under the backend `Auto` resolves to.
    #[cfg(test)]
    pub(crate) fn new(config: &OperatorConfig, matrix: &SubstitutionMatrix) -> BatchScorer {
        let backend = FunctionalOperator::host_kernel(config, matrix);
        BatchScorer::with_backend(config, matrix, backend)
    }

    fn with_backend(
        config: &OperatorConfig,
        matrix: &SubstitutionMatrix,
        backend: KernelBackend,
    ) -> BatchScorer {
        let tile_windows = (TILE_BYTES / config.window_len.max(1))
            .clamp(WIDE_LANES, TILE_MAX_WINDOWS)
            / WIDE_LANES
            * WIDE_LANES;
        BatchScorer {
            backend,
            kernel: config.kernel,
            matrix: matrix.clone(),
            window_len: config.window_len,
            threshold: config.threshold,
            tile_windows,
            filter: LaneFilter::new(backend, config.kernel, matrix, config.threshold),
            tile: InterleavedWindows::new(),
            lane_window: Vec::new(),
            profile: ScoreProfile::new(),
            scores: Vec::new(),
        }
    }

    /// Append every pair of `il0 × il1` scoring at or above the
    /// threshold to `hits`, in scan order: `IL1` tile-major, then `i0`,
    /// then `i1` — plain `i0`-major whenever `IL1` fits one tile.
    pub(crate) fn scan(&mut self, il0: &[u8], il1: &[u8], hits: &mut Vec<Hit>) {
        let l = self.window_len;
        for (t, rows) in il1.chunks(self.tile_windows * l).enumerate() {
            let first = t * self.tile_windows;
            let mut hit = |i0: usize, j: usize, score: i32| {
                hits.push(Hit {
                    i0: i0 as u32,
                    i1: (first + j) as u32,
                    score,
                })
            };
            match &self.filter {
                Some(filter) => {
                    self.tile.build(rows, l);
                    let lanes = 0..self.tile.count();
                    for (i0, w0) in il0.chunks_exact(l).enumerate() {
                        let scratch = &mut self.lane_window;
                        filter.scan(w0, &self.tile, lanes.clone(), scratch, |j, score| {
                            hit(i0, j, score)
                        });
                    }
                }
                // Scalar-width backends read the tile row-major.
                None => {
                    for (i0, w0) in il0.chunks_exact(l).enumerate() {
                        self.profile.build(&self.matrix, w0);
                        self.scores.clear();
                        score_batch(
                            self.backend,
                            self.kernel,
                            &self.matrix,
                            w0,
                            &self.profile,
                            rows,
                            &self.tile,
                            &mut self.scores,
                        );
                        for (j, &score) in self.scores.iter().enumerate() {
                            if score >= self.threshold {
                                hit(i0, j, score);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Functional PSC operator: same contract as the cycle-accurate one.
#[derive(Debug)]
pub struct FunctionalOperator {
    config: OperatorConfig,
    scorer: BatchScorer,
}

impl FunctionalOperator {
    pub fn new(
        config: OperatorConfig,
        matrix: &SubstitutionMatrix,
    ) -> Result<FunctionalOperator, String> {
        let backend = Self::host_kernel(&config, matrix);
        Self::with_backend(config, matrix, backend)
    }

    /// Build with a forced scoring backend; every one is exact for any
    /// window.
    pub(crate) fn with_backend(
        config: OperatorConfig,
        matrix: &SubstitutionMatrix,
        backend: KernelBackend,
    ) -> Result<FunctionalOperator, String> {
        config.validate()?;
        Ok(FunctionalOperator {
            scorer: BatchScorer::with_backend(&config, matrix, backend),
            config,
        })
    }

    /// The host kernel an operator built from `config` and `matrix`
    /// scores with on this machine — a fact about the simulator's host
    /// time, never about the simulated board.
    pub fn host_kernel(config: &OperatorConfig, matrix: &SubstitutionMatrix) -> KernelBackend {
        KernelChoice::Auto.resolve(config.window_len, matrix)
    }

    pub fn config(&self) -> &OperatorConfig {
        &self.config
    }

    /// Process one index entry (see the cycle-accounting contract in
    /// [`crate::operator`]).
    pub fn run_entry(&mut self, il0: &[u8], il1: &[u8]) -> EntryResult {
        let l = self.config.window_len;
        assert_eq!(il0.len() % l, 0, "IL0 not a whole number of windows");
        assert_eq!(il1.len() % l, 0, "IL1 not a whole number of windows");
        let k0 = il0.len() / l;
        let k1 = il1.len() / l;
        let mut out = EntryResult::default();
        if k0 == 0 || k1 == 0 {
            return out;
        }

        let p = self.config.pe_count;
        let slots = self.config.num_slots() as u64;
        let cap = self.config.fifo_capacity;

        self.scorer.scan(il0, il1, &mut out.hits);
        // Hardware drain order: IL0 batch, then wave, then PE.
        out.hits
            .sort_unstable_by_key(|h| (h.i0 as usize / p, h.i1, h.i0));

        let mut unreplayed = &out.hits[..];
        let mut batch_start = 0usize;
        while batch_start < k0 {
            let pb = p.min(k0 - batch_start);
            let batch_end = batch_start + pb;
            let (batch_hits, rest) =
                unreplayed.split_at(unreplayed.partition_point(|h| (h.i0 as usize) < batch_end));
            unreplayed = rest;
            // Load + barrier fill, then K1 compute waves of L cycles.
            out.cycles += (pb * l) as u64 + (slots - 1) + (k1 * l) as u64;

            // Between waves that fire results the output controller
            // only drains (≤ L per wave), so the FIFO account needs
            // visiting at the firing waves alone.
            let mut pending = 0usize;
            let mut waves_done = 0usize;
            for fired in batch_hits.chunk_by(|a, b| a.i1 == b.i1) {
                let wave = fired[0].i1 as usize;
                pending = pending.saturating_sub((wave + 1 - waves_done) * l) + fired.len();
                waves_done = wave + 1;
                // FIFO high-water: pushes land on top of the carried
                // occupancy; a stalled push drains one first, so the
                // instantaneous maximum is clamped at capacity.
                out.fifo_peak = out.fifo_peak.max(pending.min(cap) as u64);
                if pending > cap {
                    let stall = (pending - cap) as u64;
                    out.cycles += stall;
                    out.stall_cycles += stall;
                    pending = cap;
                }
            }
            pending = pending.saturating_sub((k1 - waves_done) * l);
            out.busy_pe_cycles += (pb * l * k1) as u64;
            out.cycles += pending as u64 + slots;
            batch_start = batch_end;
        }
        out
    }

    /// Closed-form cycle cost of an entry assuming **no hits**: the
    /// traffic-free lower bound, the reference the cycle-accurate
    /// equivalence tests compare [`FunctionalOperator::run_entry`]'s
    /// cycles against (equal without hits, never below it with).
    pub fn cycles_lower_bound(&self, k0: usize, k1: usize) -> u64 {
        if k0 == 0 || k1 == 0 {
            return 0;
        }
        let p = self.config.pe_count;
        let l = self.config.window_len as u64;
        let slots = self.config.num_slots() as u64;
        let full_batches = (k0 / p) as u64;
        let tail = (k0 % p) as u64;
        let per_full = p as u64 * l + (slots - 1) + k1 as u64 * l + slots;
        let mut total = full_batches * per_full;
        if tail > 0 {
            total += tail * l + (slots - 1) + k1 as u64 * l + slots;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::PscOperator;
    use psc_score::blosum62;
    use psc_score::matrix::match_mismatch;
    use psc_seqio::alphabet::{encode_protein, AA_ALPHABET_LEN};

    fn windows(words: &[&[u8]]) -> Vec<u8> {
        let mut v = Vec::new();
        for w in words {
            v.extend_from_slice(&encode_protein(w));
        }
        v
    }

    fn check_equivalence(cfg: OperatorConfig, il0: &[u8], il1: &[u8]) {
        let mut cycle_accurate = PscOperator::new(cfg.clone(), blosum62()).unwrap();
        let mut functional = FunctionalOperator::new(cfg, blosum62()).unwrap();
        let a = cycle_accurate.run_entry(il0, il1);
        let b = functional.run_entry(il0, il1);
        assert_eq!(a, b);
    }

    #[test]
    fn equivalent_on_simple_entry() {
        let mut cfg = OperatorConfig::new(4);
        cfg.window_len = 6;
        cfg.threshold = 20;
        cfg.slot_size = 2;
        cfg.fifo_capacity = 8;
        let il0 = windows(&[b"MKVLAW", b"PPPPPP", b"MKVLAV"]);
        let il1 = windows(&[b"MKVLAW", b"GGGGGG", b"MKVLAW"]);
        check_equivalence(cfg, &il0, &il1);
    }

    #[test]
    fn equivalent_under_flood() {
        let mut cfg = OperatorConfig::new(8);
        cfg.window_len = 4;
        cfg.threshold = 1;
        cfg.slot_size = 4;
        cfg.fifo_capacity = 2;
        let w: Vec<&[u8]> = vec![b"MKVL"; 13];
        let il0 = windows(&w);
        let il1 = windows(&w[..7]);
        check_equivalence(cfg, &il0, &il1);
    }

    #[test]
    fn equivalent_with_partial_batches() {
        let mut cfg = OperatorConfig::new(3);
        cfg.window_len = 4;
        cfg.threshold = 12;
        cfg.slot_size = 2;
        cfg.fifo_capacity = 4;
        let il0 = windows(&[
            b"MKVL", b"GGGG", b"MKVL", b"RNDC", b"MKVL", b"HFYW", b"MKVL",
        ]);
        let il1 = windows(&[b"MKVL", b"RNDC"]);
        check_equivalence(cfg, &il0, &il1);
    }

    #[test]
    fn lower_bound_matches_quiet_run() {
        let mut cfg = OperatorConfig::new(3);
        cfg.window_len = 4;
        cfg.threshold = 10_000; // nothing ever hits
        cfg.slot_size = 2;
        let il0 = windows(&[b"MKVL", b"GGGG", b"MKVL", b"RNDC", b"MKVL"]);
        let il1 = windows(&[b"MKVL", b"RNDC", b"AAAA"]);
        let mut f = FunctionalOperator::new(cfg, blosum62()).unwrap();
        let r = f.run_entry(&il0, &il1);
        assert_eq!(r.cycles, f.cycles_lower_bound(5, 3));
        assert_eq!(f.cycles_lower_bound(0, 3), 0);
        assert_eq!(f.cycles_lower_bound(5, 0), 0);
    }

    #[test]
    fn lower_bound_is_a_lower_bound_under_traffic() {
        let mut cfg = OperatorConfig::new(4);
        cfg.window_len = 4;
        cfg.threshold = 1;
        cfg.fifo_capacity = 2;
        cfg.slot_size = 2;
        let w: Vec<&[u8]> = vec![b"MKVL"; 9];
        let il0 = windows(&w);
        let il1 = windows(&w[..5]);
        let mut f = FunctionalOperator::new(cfg, blosum62()).unwrap();
        let r = f.run_entry(&il0, &il1);
        assert!(r.cycles >= f.cycles_lower_bound(9, 5));
    }

    /// Seeded residue stream over the full alphabet.
    fn seeded_windows(seed: u64, count: usize, len: usize) -> Vec<u8> {
        let mut rng = psc_seqio::prng::SplitMix64::new(seed);
        (0..count * len)
            .map(|_| rng.range(0..AA_ALPHABET_LEN as u8))
            .collect()
    }

    /// The paper's geometry scaled to `pes` PEs: 60-residue windows and
    /// a threshold random pairs pass often enough to exercise the hit
    /// ordering (roughly one pair in ten).
    fn window60(pes: usize, kernel: Kernel, fifo_capacity: usize) -> OperatorConfig {
        let mut cfg = OperatorConfig::new(pes);
        cfg.kernel = kernel;
        cfg.fifo_capacity = fifo_capacity;
        cfg.threshold = match kernel {
            Kernel::ClampedSum => 14,
            Kernel::PaperLiteral => 36,
        };
        cfg
    }

    /// One operator per backend, reused across every case so stale
    /// scratch from a larger entry cannot leak into a smaller one.
    fn check_backends(
        cfg: &OperatorConfig,
        m: &SubstitutionMatrix,
        backends: &[KernelBackend],
        cases: &[(usize, usize)],
    ) -> Vec<EntryResult> {
        let mut oracle = PscOperator::new(cfg.clone(), m).unwrap();
        let mut ops: Vec<FunctionalOperator> = backends
            .iter()
            .map(|&b| FunctionalOperator::with_backend(cfg.clone(), m, b).unwrap())
            .collect();
        let mut results = Vec::new();
        for &(k0, k1) in cases {
            let il0 = seeded_windows((k0 * 4099 + k1) as u64, k0, cfg.window_len);
            let il1 = seeded_windows((k1 * 8209 + k0) as u64 ^ 0xff, k1, cfg.window_len);
            let expect = oracle.run_entry(&il0, &il1);
            for (op, b) in ops.iter_mut().zip(backends) {
                assert_eq!(op.run_entry(&il0, &il1), expect, "{b:?} k0={k0} k1={k1}");
            }
            results.push(expect);
        }
        results
    }

    const EXACT_AT_60: [KernelBackend; 4] = [
        KernelBackend::Scalar,
        KernelBackend::Profile,
        KernelBackend::Simd,
        KernelBackend::Wide,
    ];

    #[test]
    fn every_backend_matches_the_oracle_across_lane_and_tile_edges() {
        // K1 straddles one 32-lane block and one 512-window tile; K0
        // with 3 PEs spans a partial batch, exact batches and several.
        // Descending K1 first, so the small entries run on dirty scratch.
        for kernel in [Kernel::ClampedSum, Kernel::PaperLiteral] {
            let cfg = window60(3, kernel, 64);
            let mut cases = Vec::new();
            for k1 in [1100, 513, 512, 511, 33, 32, 31, 1] {
                for k0 in [1, 3, 7] {
                    cases.push((k0, k1));
                }
            }
            let results = check_backends(&cfg, blosum62(), &EXACT_AT_60, &cases);
            let hits: usize = results.iter().map(|r| r.hits.len()).sum();
            assert!(
                hits > 100,
                "{kernel:?}: only {hits} hits, ordering untested"
            );
        }
    }

    #[test]
    fn full_array_batches_match_the_oracle() {
        // The paper's 192-PE array: one partial batch, then one full
        // batch plus a tail, over a two-tile IL1.
        for kernel in [Kernel::ClampedSum, Kernel::PaperLiteral] {
            let cfg = window60(192, kernel, 512);
            check_backends(&cfg, blosum62(), &EXACT_AT_60, &[(100, 33), (200, 600)]);
        }
    }

    #[test]
    fn tiny_fifo_stalls_and_peaks_at_capacity() {
        for kernel in [Kernel::ClampedSum, Kernel::PaperLiteral] {
            let mut cfg = window60(8, kernel, 2);
            // Low enough that most waves fire several results at once.
            cfg.threshold = match kernel {
                Kernel::ClampedSum => 9,
                Kernel::PaperLiteral => 24,
            };
            let results = check_backends(&cfg, blosum62(), &EXACT_AT_60, &[(20, 513), (5, 40)]);
            for r in &results {
                assert!(r.stall_cycles > 0, "{kernel:?}: no backpressure");
                assert_eq!(r.fifo_peak, 2);
            }
        }
    }

    #[test]
    fn flooded_and_quiet_two_tile_entries_match_the_oracle() {
        // Two IL1 tiles (600 windows), three IL0 batches on 3 PEs. The
        // flood — identical windows at threshold 1, every pair a hit —
        // is the filter at its worst (every lane flagged and rescored);
        // the quiet entry has one planted pair, in the second tile, at
        // the paper's threshold and on both sides of the byte range.
        let flood = seeded_windows(9, 1, 60);
        let quiet1 = seeded_windows(11, 600, 60);
        let mut quiet0 = seeded_windows(10, 7, 60);
        quiet0[4 * 60..5 * 60].copy_from_slice(&quiet1[550 * 60..551 * 60]);
        let planted = psc_align::ungapped_score(
            Kernel::ClampedSum,
            blosum62(),
            &quiet0[4 * 60..5 * 60],
            &quiet1[550 * 60..551 * 60],
        );
        assert!(planted >= 128, "planted pair scores {planted}");
        for (threshold, il0, il1, hits) in [
            (1, flood.repeat(7), flood.repeat(600), 7 * 600),
            (45, quiet0.clone(), quiet1.clone(), 1),
            (127, quiet0.clone(), quiet1.clone(), 1),
            (128, quiet0, quiet1, 1),
        ] {
            let mut cfg = window60(3, Kernel::ClampedSum, 64);
            cfg.threshold = threshold;
            let expect = PscOperator::new(cfg.clone(), blosum62())
                .unwrap()
                .run_entry(&il0, &il1);
            assert_eq!(expect.hits.len(), hits, "threshold {threshold}");
            for backend in EXACT_AT_60 {
                let mut op = FunctionalOperator::with_backend(cfg.clone(), blosum62(), backend);
                let got = op.as_mut().unwrap().run_entry(&il0, &il1);
                assert_eq!(got, expect, "{backend:?} threshold {threshold}");
            }
        }
    }

    #[test]
    fn window_past_the_i16_guard_resolves_to_profile_and_still_matches() {
        // 300 × 127 > i16::MAX: the lane kernels would wrap, so `Auto`
        // must back off — and the operator built through `new` with it.
        let m = match_mismatch("HOT", 127, -127);
        for kernel in [Kernel::ClampedSum, Kernel::PaperLiteral] {
            let mut cfg = window60(3, kernel, 8);
            cfg.window_len = 300;
            // Identical windows score 300 × 127, far past i16.
            cfg.threshold = 127 * 40;
            assert_eq!(
                FunctionalOperator::host_kernel(&cfg, &m),
                KernelBackend::Profile
            );
            let mut il0 = seeded_windows(5, 4, 300);
            let il1 = seeded_windows(6, 230, 300);
            il0[..300].copy_from_slice(&il1[300 * 200..300 * 201]);
            let mut oracle = PscOperator::new(cfg.clone(), &m).unwrap();
            let mut op = FunctionalOperator::new(cfg, &m).unwrap();
            let expect = oracle.run_entry(&il0, &il1);
            assert_eq!(op.run_entry(&il0, &il1), expect);
            assert!(expect.hits.iter().any(|h| h.score > i16::MAX as i32));
        }
    }

    #[test]
    fn long_windows_shrink_the_tile_to_stay_bounded() {
        let mut cfg = OperatorConfig::new(4);
        for (window_len, tile) in [(60, 512), (4, 512), (300, 64), (40_000, 64)] {
            cfg.window_len = window_len;
            let s = BatchScorer::new(&cfg, blosum62());
            assert_eq!(s.tile_windows, tile, "window_len {window_len}");
            assert_eq!(s.tile_windows % WIDE_LANES, 0);
        }
    }
}
