//! The three-step pipeline driver.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psc_align::{
    cull_hsps, gapped_extend, ExtendScratch, GapConfig, GappedHit, Hsp, MAX_BLOCKS, WIDE_LANES,
};
use psc_index::{FlatBank, KeyCounts, SeedIndex};
use psc_rasc::{BoardReport, BoardSegment, Entry, RascBoard};
use psc_score::karlin::search_params;
use psc_score::{KarlinParams, SubstitutionMatrix};
use psc_seqio::{mask_low_complexity, Bank, MaskConfig};

use psc_telemetry::{keys, Recorder, SpanGuard, TraceClock, Tracer, UnitEvent, UnitTrace};

use crate::config::{PipelineConfig, Step2Backend};
use crate::profile::StepProfile;
use crate::step2::{self, Candidate, ItemTiming, LaneTally, Step2Params, Step2Stats, TimedRun};

/// Instrumentation of a pipeline run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Positions indexed in each bank: windows that seeded, kept or not.
    pub indexed0: usize,
    pub indexed1: usize,
    /// Step-2 counters.
    pub step2: Step2Stats,
    /// Gapped-extension anchors after per-diagonal deduplication.
    pub anchors: u64,
    /// HSPs surviving E-value filtering and culling.
    pub reported: usize,
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// Final alignments, best E-value first. `seq0` indexes bank 0,
    /// `seq1` indexes bank 1.
    pub hsps: Vec<Hsp>,
    pub profile: StepProfile,
    pub stats: PipelineStats,
    /// Present when step 2 ran on the simulated RASC board.
    pub board: Option<BoardReport>,
}

/// Why a pipeline run could not start: a configuration problem
/// detectable before any sequence is touched.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The PSC operator (step 2) exceeds the FPGA resource budget.
    OperatorDoesNotFit(psc_rasc::ResourceError),
    /// The substitution matrix has no valid Karlin–Altschul parameters
    /// (its expected score is non-negative, so local alignment
    /// statistics are undefined).
    UnsupportedMatrix,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::OperatorDoesNotFit(e) => {
                write!(f, "step-2 operator does not fit the FPGA: {e}")
            }
            PipelineError::UnsupportedMatrix => {
                write!(f, "matrix does not support local alignment statistics")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The paper's bank-vs-bank comparison pipeline: the steps behind
/// [`crate::SearchEngine`], which is the way into a search. Outside
/// this crate only step 1 of one bank, [`Pipeline::prepare_bank`], is
/// reachable.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline { config }
    }

    pub(crate) fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The statistics E-values are reported with: [`search_params`] of
    /// `matrix` at this configuration's gap costs.
    pub(crate) fn search_stats(
        &self,
        matrix: &SubstitutionMatrix,
    ) -> Result<KarlinParams, PipelineError> {
        let gap = &self.config.gap;
        search_params(matrix, gap.open, gap.extend).ok_or(PipelineError::UnsupportedMatrix)
    }

    /// Step 1 for one bank (`which` = 0 or 1): flatten, apply the soft
    /// mask, and build the seed index. The result is the immutable,
    /// shareable half of a run — built once (or loaded from an index
    /// bundle) and read by any number of queries.
    pub fn prepare_bank(&self, which: usize, bank: &Bank, rec: &dyn Recorder) -> PreparedBank {
        let views = BankViews::new(&self.config.mask, FlatBank::from_bank(bank));
        self.index_bank(which, views, None, rec)
    }

    /// Step 1's index over an already-flattened bank, keeping only the
    /// keys `keep` holds (all when `None`; see [`SeedIndex::build`]).
    pub(crate) fn index_bank(
        &self,
        which: usize,
        views: BankViews,
        keep: Option<&SeedIndex>,
        rec: &dyn Recorder,
    ) -> PreparedBank {
        let (model, threads) = (self.config.seed.model(), self.config.index_threads);
        let key = if which == 0 {
            keys::STEP1_INDEX_BANK0
        } else {
            keys::STEP1_INDEX_BANK1
        };
        let (idx, prep_seconds) = timed(|| {
            let _g = SpanGuard::enter(rec, key);
            SeedIndex::build(&views.seeding, model.as_ref(), threads, keep)
        });
        PreparedBank {
            views,
            idx,
            prep_seconds,
        }
    }

    /// Steps 2 and 3 against bank 1's `views` keyed by `prep0`'s T0 —
    /// the one-shot query. The board builds one T1 over the whole bank.
    /// The software backends count its sequences once and then index
    /// and extend them a chunk at a time ([`chunk_groups`] with `group`
    /// kept positions per active key), so only a chunk's T1 is ever
    /// held. Output is that of [`Pipeline::try_run_prepared_traced`]
    /// over the whole T1.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn try_run_keyed_traced(
        &self,
        prep0: &PreparedBank,
        views1: &BankViews,
        group: usize,
        matrix: &SubstitutionMatrix,
        stats: KarlinParams,
        rec: &dyn Recorder,
        tracer: &dyn Tracer,
    ) -> Result<PipelineOutput, PipelineError> {
        let keep = Some(prep0.index());
        if let Step2Backend::Rasc { .. } = self.config.backend {
            let prep1 = self.index_bank(1, views1.clone(), keep, rec);
            return self.try_run_prepared_traced(prep0, &prep1, matrix, stats, rec, tracer);
        }
        let (model, flat1) = (self.config.seed.model(), &*views1.seeding);
        let seqs = (0..flat1.seq_count()).map(|s| (s, s + 1)).collect();
        let threads = self.config.index_threads;
        let (counts, secs) = timed(|| KeyCounts::count(flat1, model.as_ref(), seqs, threads, keep));
        let chunks = chunk_groups(&counts, prep0.index(), group);
        let t1 = T1::Chunks(&counts, &chunks);
        self.run_steps(prep0, views1, &t1, secs, matrix, stats, rec, tracer)
    }

    /// Steps 2 and 3 over banks prepared by [`Pipeline::prepare_bank`]
    /// (or loaded from an index bundle) — the per-query half of a run.
    /// Step 2 reads each bank's seeding view, step 3 extends over its
    /// original residues: the same buffer unless masking is on. E-values
    /// come from `stats`, [`Pipeline::search_stats`] of `matrix`.
    ///
    /// Telemetry goes into `rec` and flight-recorder units into
    /// `tracer`, and neither changes the output: per-item
    /// instrumentation is gated on [`Recorder::enabled`] or computed
    /// outside the step-2 hot loop, and every [`UnitTrace`] is committed
    /// here, on the calling thread, after its unit completes. Under
    /// [`TraceClock::Wall`] host lanes carry measured timings; under
    /// [`TraceClock::Virtual`] host units are deterministic scheduled
    /// work (weights from pair mass and anchor counts), byte-identical
    /// across thread counts. Simulated board lanes are cycle-derived
    /// under both clocks.
    pub(crate) fn try_run_prepared_traced(
        &self,
        prep0: &PreparedBank,
        prep1: &PreparedBank,
        matrix: &SubstitutionMatrix,
        stats: KarlinParams,
        rec: &dyn Recorder,
        tracer: &dyn Tracer,
    ) -> Result<PipelineOutput, PipelineError> {
        let (t1, step1) = (T1::Whole(&prep1.idx), prep1.prep_seconds);
        self.run_steps(prep0, &prep1.views, &t1, step1, matrix, stats, rec, tracer)
    }

    /// Steps 2 and 3 over bank 1's views and its T1, whose step 1 took
    /// `step1_bank1` seconds before this call.
    #[allow(clippy::too_many_arguments)]
    fn run_steps(
        &self,
        prep0: &PreparedBank,
        views1: &BankViews,
        t1: &T1<'_>,
        step1_bank1: f64,
        matrix: &SubstitutionMatrix,
        stats: KarlinParams,
        rec: &dyn Recorder,
        tracer: &dyn Tracer,
    ) -> Result<PipelineOutput, PipelineError> {
        let cfg = &self.config;
        let span = cfg.seed.model().span();
        let (flat0, idx0) = (prep0.flat(), &prep0.idx);
        let (flat1, bank0, bank1) = (&*views1.seeding, prep0.original(), &*views1.original);
        rec.add(
            keys::STEP1_POSITIONS_INDEXED_BANK0,
            idx0.seeded_positions() as u64,
        );
        let (seeded1, held1) = match t1 {
            T1::Whole(idx1) => (idx1.seeded_positions(), idx1.total_positions()),
            T1::Chunks(counts, _) => (counts.seeded(), counts.held(0..counts.parts())),
        };
        rec.add(keys::STEP1_POSITIONS_INDEXED_BANK1, seeded1 as u64);
        rec.add(keys::STEP1_POSITIONS_HELD_BANK1, held1 as u64);
        let chunks = match t1 {
            T1::Whole(_) => 1,
            T1::Chunks(_, chunks) => chunks.len(),
        };
        rec.add(keys::STEP1_CHUNKS_BANK1, chunks as u64);

        // ---- Step 2: ungapped extension ----------------------------
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock step profile is the audited exception"
        )]
        let t1_clock = Instant::now();
        let params = Step2Params {
            matrix,
            kernel: cfg.kernel,
            span,
            n_ctx: cfg.n_ctx,
            threshold: cfg.threshold,
            kernel_backend: cfg.step2_kernel,
            schedule: cfg.step2_schedule,
        };
        let mut dedup = AnchorDedup::new(flat0, flat1, cfg.min_anchor_sep);
        // Virtual-clock traces model step 2 as its deterministic work
        // items, independent of backend, schedule and thread count.
        if tracer.enabled() && tracer.clock() == TraceClock::Virtual {
            commit_virtual_step2(tracer, step2::key_masses(idx0, |k| t1.list_len(k)));
        }
        let (mut s2stats, lanes, board, scatter) = run_step2(
            cfg, &params, flat0, idx0, flat1, t1, &mut dedup, tracer, &t1_clock,
        )?;
        if let Some(b) = board.as_ref().filter(|_| tracer.enabled()) {
            commit_board_timeline(tracer, b);
        }
        // Every backend pushes the same candidate multiset; the pushed
        // count is the one `candidates` counter.
        s2stats.candidates = dedup.pushed();
        // A chunk's scatter is step 1's, whichever step's loop ran it.
        let step2_wall = t1_clock.elapsed().as_secs_f64() - scatter;
        let step1 = prep0.prep_seconds + step1_bank1 + scatter;
        if let T1::Chunks(..) = t1 {
            rec.record_span(keys::STEP1_INDEX_BANK1, step1_bank1 + scatter);
        }
        let step2_accelerated = board.as_ref().map(|r| r.accelerated_seconds);
        // Which software kernel scored step 2 (the pure-board backend
        // never touches the software kernels), plus why `resolve` had to
        // back off the requested choice, if it did.
        let (resolved_kernel, kernel_downgrade) = cfg
            .step2_kernel
            .resolve_with_reason(params.window_len(), matrix);
        let step2_kernel = match &cfg.backend {
            Step2Backend::Rasc { .. } => None,
            _ => Some(resolved_kernel),
        };

        // Step-2 telemetry, all computed off the hot loop: counters from
        // the stats and lane tally the run produced anyway, and an
        // O(key-count) pass over the indexes for the per-key pair
        // distribution — never taken with a disabled recorder.
        rec.add(keys::STEP2_PAIRS, s2stats.pairs);
        rec.add(keys::STEP2_CANDIDATES_KEPT, s2stats.candidates);
        rec.add(
            keys::STEP2_CANDIDATES_CULLED,
            s2stats.pairs - s2stats.candidates,
        );
        rec.add(keys::STEP2_ACTIVE_KEYS, s2stats.active_keys);
        if rec.enabled() {
            rec.set_meta(keys::BACKEND, cfg.backend.name());
            rec.set_meta(keys::STEP2_SCHEDULE, params.schedule.name());
            if let Some(k) = step2_kernel {
                rec.set_meta(keys::STEP2_KERNEL, k.name());
                rec.set_meta(
                    keys::STEP2_KERNEL_REQUESTED,
                    &format!("{:?}", cfg.step2_kernel).to_lowercase(),
                );
                if let Some(reason) = kernel_downgrade {
                    rec.set_meta(keys::STEP2_KERNEL_DOWNGRADE, reason);
                }
            }
            if let Some(b) = board.as_ref() {
                rec.set_meta(keys::RASC_HOST_KERNEL, b.host_kernel);
            }
            rec.set_meta(keys::WINDOW_LEN, &cfg.window_len().to_string());
            rec.set_meta(keys::THRESHOLD, &cfg.threshold.to_string());
            let mut gather_bytes = 0u64;
            for key in 0..idx0.key_count() as u32 {
                let (n0, n1) = (idx0.list(key).len(), t1.list_len(key));
                if n0 == 0 || n1 == 0 {
                    continue;
                }
                rec.observe(keys::STEP2_PAIRS_PER_KEY, n0 as u64 * n1 as u64);
                gather_bytes += (n0 + n1) as u64 * params.window_len() as u64;
            }
            rec.add(keys::STEP2_GATHER_BYTES, gather_bytes);
            if step2_kernel.is_some_and(|k| k.lane_width() > 1) {
                // Tiles and lane slots, the slots again by log2 pair-mass
                // bucket — the heavy-tail keys the bucketed schedule
                // exists to balance are the high buckets — and each
                // rectangle's percent of slots doing useful work.
                rec.add(keys::STEP2_SIMD_TILES, lanes.tiles);
                rec.add(keys::STEP2_LANE_SLOTS_USEFUL, lanes.useful.iter().sum());
                rec.add(keys::STEP2_LANE_SLOTS_TOTAL, lanes.total.iter().sum());
                let buckets = (0u32..).zip(lanes.useful.into_iter().zip(lanes.total));
                for (b, (useful, total)) in buckets.filter(|&(_, (_, total))| total > 0) {
                    rec.add(keys::step2_lane_slots_useful_bucket(b), useful);
                    rec.add(keys::step2_lane_slots_total_bucket(b), total);
                }
                for (percent, n) in (0u64..).zip(lanes.fill).filter(|&(_, n)| n > 0) {
                    rec.observe_n(keys::STEP2_LANE_FILL, percent, n);
                }
            }
        }

        // ---- Step 3: gapped extension ------------------------------
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock step profile is the audited exception"
        )]
        let t2 = Instant::now();
        let (m, n) = (bank0.len(), bank1.len());

        let anchors = dedup.finish();
        // Extension runs on `step3_threads` workers over fixed-size
        // shards; the merge below walks anchors in order, so counters
        // and HSP output cannot depend on the thread count.
        let trace_wall = tracer.enabled() && tracer.clock() == TraceClock::Wall;
        let (extensions, shard_seconds, shard_lanes) = extend_anchors(
            matrix,
            bank0,
            bank1,
            &cfg.gap,
            &anchors,
            cfg.step3_threads,
            if trace_wall { Some(tracer) } else { None },
        );
        // The sum of per-shard costs is the sequential extension time;
        // a wall-clock span, stripped with the others.
        let extension_seconds: f64 = shard_seconds.iter().sum();
        if trace_wall {
            // Span durations reuse the exact `shard_seconds` values so
            // the trace reconciles against the `step3.extension` report
            // span without measurement skew.
            for sl in &shard_lanes {
                let size = STEP3_SHARD.min(anchors.len() - sl.shard * STEP3_SHARD) as u64;
                tracer.commit(UnitTrace {
                    stage: keys::STAGE_STEP3,
                    index: sl.shard as u64,
                    lane: sl.worker,
                    start_seconds: Some(sl.start_seconds),
                    sim_clock: false,
                    events: vec![
                        UnitEvent::span(keys::EV_EXTEND, shard_seconds[sl.shard], size.max(1)),
                        UnitEvent::mark(keys::EV_ANCHORS, size),
                    ],
                });
            }
        } else if tracer.enabled() {
            commit_virtual_step3(tracer, anchors.len());
        }
        let merge_start = tracer.epoch_seconds();
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock step profile is the audited exception"
        )]
        let t_merge = Instant::now();
        let mut hsps = Vec::new();
        // Step-3 accounting: an extension flank "X-drop terminated" when
        // the DP gave up strictly inside both sequences (as opposed to
        // running into a sequence end).
        let mut xdrop_terminations = 0u64;
        let mut evalue_rejected = 0u64;
        let mut dp_cells = 0u64;
        for (a, hit) in anchors.iter().zip(&extensions) {
            let (s0, s1) = (bank0.seq(a.seq0 as usize), bank1.seq(a.seq1 as usize));
            dp_cells += hit.cells;
            if hit.start0 > 0 && hit.start1 > 0 {
                xdrop_terminations += 1;
            }
            if hit.end0 < s0.len() && hit.end1 < s1.len() {
                xdrop_terminations += 1;
            }
            let evalue = stats.evalue(hit.score, m, n);
            if evalue > cfg.max_evalue {
                evalue_rejected += 1;
            }
            if evalue <= cfg.max_evalue {
                hsps.push(Hsp {
                    seq0: a.seq0,
                    seq1: a.seq1,
                    start0: hit.start0 as u32,
                    end0: hit.end0 as u32,
                    start1: hit.start1 as u32,
                    end1: hit.end1 as u32,
                    score: hit.score,
                    bit_score: stats.bit_score(hit.score),
                    evalue,
                });
            }
        }
        let merge_wait = t_merge.elapsed().as_secs_f64();
        if trace_wall {
            tracer.commit(UnitTrace {
                stage: keys::STAGE_STEP3_MERGE,
                index: 0,
                lane: 0,
                start_seconds: Some(merge_start),
                sim_clock: false,
                events: vec![
                    UnitEvent::span(keys::EV_MERGE_WAIT, merge_wait, 1),
                    UnitEvent::mark(keys::EV_ANCHORS, anchors.len() as u64),
                ],
            });
        }
        let mut hsps = cull_hsps(hsps, 0.9);
        hsps.sort_by(|a, b| a.evalue.total_cmp(&b.evalue));
        let step3 = t2.elapsed().as_secs_f64();

        rec.add(keys::STEP3_ANCHORS, anchors.len() as u64);
        rec.add(
            keys::STEP3_SHARDS,
            anchors.len().div_ceil(STEP3_SHARD) as u64,
        );
        rec.add(keys::STEP3_DP_CELLS, dp_cells);
        rec.add(keys::STEP3_XDROP_TERMINATIONS, xdrop_terminations);
        rec.add(keys::STEP3_EVALUE_REJECTED, evalue_rejected);
        rec.add(keys::STEP3_HSPS_REPORTED, hsps.len() as u64);
        rec.record_span(keys::STEP1, step1);
        rec.record_span(keys::STEP2_WALL, step2_wall);
        rec.record_span(keys::STEP3, step3);
        rec.record_span(keys::STEP3_EXTENSION, extension_seconds);
        rec.record_span(keys::STEP3_MERGE_WAIT, merge_wait);

        Ok(PipelineOutput {
            stats: PipelineStats {
                indexed0: idx0.seeded_positions(),
                indexed1: seeded1,
                step2: s2stats,
                anchors: anchors.len() as u64,
                reported: hsps.len(),
            },
            hsps,
            profile: StepProfile {
                step1,
                step2_wall,
                step2_kernel,
                step2_accelerated,
                step3,
            },
            board,
        })
    }
}

/// A bank as the pipeline reads it, flattened to global `u32`
/// coordinates: the seeding view steps 1 and 2 index and gather from,
/// and the original residues step 3 extends over. They are one buffer
/// unless masking rewrote the seeding view.
#[derive(Clone, Debug)]
pub(crate) struct BankViews {
    pub(crate) seeding: Arc<FlatBank>,
    pub(crate) original: Arc<FlatBank>,
}

impl BankViews {
    /// The views of `original`: its seeding view is entropy soft-masked
    /// when masking is configured, and `original` itself otherwise.
    pub(crate) fn new(mask: &Option<MaskConfig>, original: FlatBank) -> BankViews {
        let original = Arc::new(original);
        let seeding = match mask {
            None => Arc::clone(&original),
            Some(mask_cfg) => {
                let seqs = (0..original.seq_count()).map(|i| original.seq(i));
                let mut masked = Vec::with_capacity(original.len());
                for seq in seqs.clone() {
                    masked.extend(mask_low_complexity(seq, mask_cfg));
                }
                let lens = seqs.map(<[u8]>::len);
                Arc::new(FlatBank::from_concatenation(masked, lens))
            }
        };
        BankViews { seeding, original }
    }
}

/// Step-1 output for one bank: its flat views plus the seed index of
/// the seeding view — the pipeline state a server shares across
/// queries, as opposed to the per-query state steps 2 and 3 build and
/// discard.
///
/// Produced by [`Pipeline::prepare_bank`], or assembled from a
/// persisted index bundle.
#[derive(Clone, Debug)]
pub struct PreparedBank {
    /// Shared: each T1 an engine keys per query reuses its views.
    views: BankViews,
    idx: SeedIndex,
    /// Wall seconds step 1 spent building this bank's index (zero when
    /// loaded from an artifact — that is the amortization).
    prep_seconds: f64,
}

impl PreparedBank {
    /// Assemble from already-built views and index (artifact load).
    /// `prep_seconds` is zero: the build was paid elsewhere.
    pub(crate) fn from_parts(views: BankViews, idx: SeedIndex) -> PreparedBank {
        PreparedBank {
            views,
            idx,
            prep_seconds: 0.0,
        }
    }

    /// The seeding-view flat bank.
    pub fn flat(&self) -> &FlatBank {
        &self.views.seeding
    }

    /// The original residues, flattened: what step 3 extends over. The
    /// same bank as [`PreparedBank::flat`] unless masking is on.
    pub(crate) fn original(&self) -> &FlatBank {
        &self.views.original
    }

    /// The seed index over [`PreparedBank::flat`].
    pub fn index(&self) -> &SeedIndex {
        &self.idx
    }
}

/// Kept positions a chunk of bank 1 holds per active key, at least:
/// one classify group of the widest lane path, [`MAX_BLOCKS`] blocks of
/// [`WIDE_LANES`] lanes. Thinner chunks leave lanes empty.
pub(crate) const CHUNK_GROUP: usize = MAX_BLOCKS * WIDE_LANES;

/// Bank 1's T1 as step 2 reads it.
pub(crate) enum T1<'a> {
    /// One index over the whole bank: built by step 1, or loaded.
    Whole(&'a SeedIndex),
    /// The bank's count pass, and the runs of its sequences step 2
    /// scatters and extends one at a time.
    Chunks(&'a KeyCounts<'a>, &'a [Range<usize>]),
}

impl T1<'_> {
    /// `|IL1_key|` over the whole bank.
    fn list_len(&self, key: u32) -> usize {
        match self {
            T1::Whole(idx) => idx.list(key).len(),
            T1::Chunks(counts, _) => counts.list_len(0..counts.parts(), key),
        }
    }
}

/// Bank 1's sequences in chunks for [`T1::Chunks`]: consecutive
/// sequences merged until a chunk holds `group` kept positions per
/// active key (a key with a T0 list and a kept position). At `group` 0
/// each sequence is a chunk; at `usize::MAX` the bank is one.
pub(crate) fn chunk_groups(
    counts: &KeyCounts<'_>,
    idx0: &SeedIndex,
    group: usize,
) -> Vec<Range<usize>> {
    let active = active_keys(idx0, |k| counts.list_len(0..counts.parts(), k));
    let per_chunk = group.saturating_mul(active);
    let mut chunks: Vec<Range<usize>> = Vec::new();
    for part in 0..counts.parts() {
        match chunks.last_mut() {
            Some(last) if counts.held(last.clone()) < per_chunk => last.end += 1,
            _ => chunks.push(part..part + 1),
        }
    }
    chunks
}

/// Keys with an `idx0` list and `len1(key)` positions on the other side:
/// those step 2 reads.
fn active_keys(idx0: &SeedIndex, len1: impl Fn(u32) -> usize) -> usize {
    let keys = 0..idx0.key_count() as u32;
    keys.filter(|&k| !idx0.list(k).is_empty() && len1(k) > 0)
        .count()
}

/// `f`'s result and the wall seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock step profile is the audited exception"
    )]
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// An anchor for gapped extension, in sequence-local coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Anchor {
    seq0: u32,
    seq1: u32,
    local0: u32,
    local1: u32,
}

/// Incremental, order-invariant anchor deduplication.
///
/// Candidates are localized as they arrive — in *any* order, because
/// the board backends deliver them in entry completion order rather
/// than position order — into one vector of `(seq0, seq1, diagonal,
/// local1, local0, score)`. [`AnchorDedup::finish`] sorts it by the
/// first four fields and, along each `(seq0, seq1, diagonal)` line,
/// folds members closer than `min_sep` subject residues to the previous
/// one, keeping the best-scoring member of each fold group. `(seq0, seq1,
/// diag, local1)` uniquely identifies a candidate (the diagonal fixes
/// `local0`, the flat position fixes the score), so the sort is a total
/// order and the output is identical to the historical
/// sort-everything-then-fold pass no matter how pushes interleave — the
/// property `anchor_dedup_is_push_order_invariant` pins.
struct AnchorDedup<'a> {
    flat0: &'a FlatBank,
    flat1: &'a FlatBank,
    min_sep: u32,
    found: Vec<Found>,
}

/// A localized candidate: `(seq0, seq1, diagonal, local1, local0,
/// score)`.
type Found = (u32, u32, i64, u32, u32, i32);

impl<'a> AnchorDedup<'a> {
    fn new(flat0: &'a FlatBank, flat1: &'a FlatBank, min_sep: u32) -> AnchorDedup<'a> {
        AnchorDedup {
            flat0,
            flat1,
            min_sep,
            found: Vec::new(),
        }
    }

    /// Localize one candidate onto its diagonal line.
    fn push(&mut self, c: &Candidate) {
        let (s0, l0) = self.flat0.locate(c.pos0);
        let (s1, l1) = self.flat1.locate(c.pos1);
        let diag = l1 as i64 - l0 as i64;
        let found = (s0 as u32, s1 as u32, diag, l1 as u32, l0 as u32, c.score);
        self.found.push(found);
    }

    /// Number of candidates pushed so far.
    fn pushed(&self) -> u64 {
        self.found.len() as u64
    }

    /// Fold every diagonal line into anchors, in `(seq0, seq1, diag,
    /// local1)` order.
    fn finish(mut self) -> Vec<Anchor> {
        let found = &mut self.found;
        found.sort_unstable_by_key(|&(seq0, seq1, diag, local1, ..)| (seq0, seq1, diag, local1));
        let anchor = |(seq0, seq1, _, local1, local0, _): Found| Anchor {
            seq0,
            seq1,
            local0,
            local1,
        };
        let mut anchors = Vec::new();
        for line in found.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
            // The fold window chains: each member extends the group when
            // it lands within `min_sep` of the *previous* member.
            let mut best = line[0];
            for pair in line.windows(2) {
                let (previous, c) = (pair[0], pair[1]);
                if c.3 >= previous.3 + self.min_sep {
                    anchors.push(anchor(best));
                    best = c;
                } else if c.5 > best.5 {
                    best = c;
                }
            }
            anchors.push(anchor(best));
        }
        anchors
    }
}

/// Anchors per step-3 work shard. Fixed (not derived from the thread
/// count) so shard boundaries — and the `step3.shards` telemetry — are
/// identical no matter how many workers run.
const STEP3_SHARD: usize = 64;

/// Extend every anchor, in anchor order. The anchors are cut into
/// [`STEP3_SHARD`]-sized shards pulled by workers off a shared counter
/// — `threads` of them, or this thread alone when there is one worker
/// or one shard; results are reassembled by shard index, so the
/// returned hits are bit-identical at any thread count. Each worker
/// extends on DP rows of its own ([`ExtendScratch`]), so an anchor
/// costs no allocation.
///
/// The second return value is the wall seconds each shard spent in
/// extension, indexed by shard. It feeds the `step3.extension` span
/// and the wall-clock trace; results never depend on it.
///
/// When a wall-clock `tracer` is attached, the third return value maps
/// each shard to the worker that ran it and its start offset on the
/// tracer's epoch (empty otherwise); the caller commits the spans.
fn extend_anchors(
    matrix: &SubstitutionMatrix,
    bank0: &FlatBank,
    bank1: &FlatBank,
    gap: &GapConfig,
    anchors: &[Anchor],
    threads: usize,
    tracer: Option<&dyn Tracer>,
) -> (Vec<GappedHit>, Vec<f64>, Vec<ShardLane>) {
    // (shard index, extended hits, shard wall seconds) from one worker.
    type ShardResult = (usize, Vec<GappedHit>, f64);
    let shard_count = anchors.len().div_ceil(STEP3_SHARD);
    let next = AtomicUsize::new(0);
    let work = |worker: u32| -> (Vec<ShardResult>, Vec<ShardLane>) {
        let mut scratch = ExtendScratch::new();
        let mut extend_one = |a: &Anchor| {
            let (s0, s1) = (bank0.seq(a.seq0 as usize), bank1.seq(a.seq1 as usize));
            let (a0, a1) = (a.local0 as usize, a.local1 as usize);
            gapped_extend(matrix, s0, s1, a0, a1, gap, &mut scratch)
        };
        let mut shards: Vec<ShardResult> = Vec::new();
        let mut lanes: Vec<ShardLane> = Vec::new();
        loop {
            let shard = next.fetch_add(1, Ordering::Relaxed);
            if shard >= shard_count {
                break;
            }
            let lo = shard * STEP3_SHARD;
            let hi = (lo + STEP3_SHARD).min(anchors.len());
            if let Some(tr) = tracer {
                lanes.push(ShardLane {
                    shard,
                    worker,
                    start_seconds: tr.epoch_seconds(),
                });
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "span telemetry only, never results"
            )]
            let t0 = Instant::now();
            let hits: Vec<_> = anchors[lo..hi].iter().map(&mut extend_one).collect();
            shards.push((shard, hits, t0.elapsed().as_secs_f64()));
        }
        (shards, lanes)
    };
    let workers = threads.min(shard_count);
    let (mut sharded, mut lanes) = if workers <= 1 {
        work(0)
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers as u32)
                .map(|w| {
                    let work = &work;
                    s.spawn(move || work(w))
                })
                .collect();
            let (mut shards, mut lanes) = (Vec::with_capacity(shard_count), Vec::new());
            for h in handles {
                let (worker_shards, worker_lanes) = h.join().expect("step-3 worker panicked");
                shards.extend(worker_shards);
                lanes.extend(worker_lanes);
            }
            (shards, lanes)
        })
    };
    sharded.sort_unstable_by_key(|&(shard, _, _)| shard);
    lanes.sort_unstable_by_key(|l| l.shard);
    let shard_seconds = sharded.iter().map(|&(_, _, s)| s).collect();
    (
        sharded.into_iter().flat_map(|(_, v, _)| v).collect(),
        shard_seconds,
        lanes,
    )
}

/// Which worker ran a step-3 shard and when it started, on the
/// tracer's epoch — the pinning info for one `step3` trace span.
struct ShardLane {
    shard: usize,
    worker: u32,
    start_seconds: f64,
}

/// Pair mass → deterministic virtual-clock weight of a step-2 unit, in
/// ticks; 256 pairs per tick keeps light items visible on the replay.
fn step2_weight(pairs: u64) -> u64 {
    pairs.div_ceil(256).max(1)
}

/// Commit measured software step-2 unit timings as wall-clock spans,
/// pinned at `base` (the tracer-epoch offset of the stage's own epoch)
/// plus each unit's offset.
fn commit_step2_timings(tracer: &dyn Tracer, base: f64, times: &[ItemTiming]) {
    for t in times {
        tracer.commit(UnitTrace {
            stage: keys::STAGE_STEP2,
            index: t.item as u64,
            lane: t.worker,
            start_seconds: Some(base + t.start_seconds),
            sim_clock: false,
            events: vec![
                UnitEvent::span(keys::EV_EXTEND, t.kernel_seconds, step2_weight(t.pairs)),
                UnitEvent::mark(keys::EV_CANDIDATES, t.candidates),
            ],
        });
    }
}

/// Deterministic step-2 work model for virtual-clock traces: one
/// scheduled unit per bucketed work item, weighted by pair mass —
/// independent of backend, schedule and thread count.
fn commit_virtual_step2(tracer: &dyn Tracer, masses: impl ExactSizeIterator<Item = u64>) {
    let items = step2::bucketed_items(masses);
    for (i, item) in items.iter().enumerate() {
        tracer.commit(UnitTrace {
            stage: keys::STAGE_STEP2,
            index: i as u64,
            lane: 0,
            start_seconds: None,
            sim_clock: false,
            events: vec![UnitEvent::span(
                keys::EV_EXTEND,
                0.0,
                step2_weight(item.mass),
            )],
        });
    }
}

/// Deterministic step-3 work model for virtual-clock traces: one
/// scheduled unit per fixed-size anchor shard plus the merge walk.
fn commit_virtual_step3(tracer: &dyn Tracer, anchors: usize) {
    let shard_count = anchors.div_ceil(STEP3_SHARD);
    for shard in 0..shard_count {
        let size = (STEP3_SHARD.min(anchors - shard * STEP3_SHARD)) as u64;
        tracer.commit(UnitTrace {
            stage: keys::STAGE_STEP3,
            index: shard as u64,
            lane: 0,
            start_seconds: None,
            sim_clock: false,
            events: vec![UnitEvent::span(keys::EV_EXTEND, 0.0, size)],
        });
    }
    if anchors > 0 {
        tracer.commit(UnitTrace {
            stage: keys::STAGE_STEP3_MERGE,
            index: 0,
            lane: 0,
            start_seconds: None,
            sim_clock: false,
            events: vec![UnitEvent::span(
                keys::EV_MERGE_WAIT,
                0.0,
                (anchors as u64).div_ceil(STEP3_SHARD as u64),
            )],
        });
    }
}

/// One `(entry, fpga)` timeline record as two sim-clock units on lane
/// `seg.fpga`: DMA-in, and compute.
fn commit_segment(tracer: &dyn Tracer, index: u64, seg: &BoardSegment) {
    tracer.commit(UnitTrace {
        stage: keys::STAGE_BOARD_DMA,
        index,
        lane: seg.fpga as u32,
        start_seconds: Some(seg.dma_start),
        sim_clock: true,
        events: vec![
            UnitEvent::span(keys::EV_DMA_IN, seg.dma_end - seg.dma_start, 1),
            UnitEvent::mark(keys::EV_ENTRY, seg.entry),
        ],
    });
    tracer.commit(UnitTrace {
        stage: keys::STAGE_BOARD_COMPUTE,
        index,
        lane: seg.fpga as u32,
        start_seconds: Some(seg.compute_start),
        sim_clock: true,
        events: vec![UnitEvent::span(
            keys::EV_COMPUTE,
            seg.compute_end - seg.compute_start,
            1,
        )],
    });
}

/// Board lanes from the cycle-derived [`BoardReport`] timeline: DMA-in
/// and compute per FPGA ([`commit_segment`]), plus one result-link drain
/// lane — all on the simulated clock, so they are deterministic under
/// both trace clocks.
fn commit_board_timeline(tracer: &dyn Tracer, report: &BoardReport) {
    for (i, seg) in report.timeline.iter().enumerate() {
        commit_segment(tracer, i as u64, seg);
    }
    if !report.timeline.is_empty() {
        let drain_start = report
            .timeline
            .iter()
            .map(|s| s.compute_end)
            .fold(0.0, f64::max);
        tracer.commit(UnitTrace {
            stage: keys::STAGE_BOARD_LINK,
            index: 0,
            lane: 0,
            start_seconds: Some(drain_start),
            sim_clock: true,
            events: vec![
                UnitEvent::span(
                    keys::EV_DMA_OUT,
                    report.wire_out_seconds + report.sync_seconds,
                    1,
                ),
                UnitEvent::mark(keys::EV_HITS, report.hit_count),
            ],
        });
    }
}

/// What [`run_step2`] hands back besides the candidates it pushed into
/// the dedup: counters (`candidates` left for the caller to fill from
/// [`AnchorDedup::pushed`]), what the lane kernels walked, on the
/// simulated board its report, and step 1's share of its wall: chunk
/// scatters.
type Step2Output = (Step2Stats, LaneTally, Option<BoardReport>, f64);

/// Step 2 on the configured backend, feeding `dedup` directly: the
/// board pushes each entry's candidates from the draining thread as the
/// entry completes, the software kernels push after the worker join,
/// chunk after chunk of a chunked T1. The dedup is push-order
/// invariant, so the anchors — and everything downstream — are
/// bit-identical across backends, thread counts and chunkings. `clock`
/// started with step 2.
#[allow(clippy::too_many_arguments)]
fn run_step2(
    cfg: &PipelineConfig,
    params: &Step2Params<'_>,
    flat0: &FlatBank,
    idx0: &SeedIndex,
    flat1: &FlatBank,
    t1: &T1<'_>,
    dedup: &mut AnchorDedup<'_>,
    tracer: &dyn Tracer,
    clock: &Instant,
) -> Result<Step2Output, PipelineError> {
    let threads = match &cfg.backend {
        Step2Backend::SoftwareScalar => 1,
        Step2Backend::SoftwareParallel { threads } => (*threads).max(1),
        Step2Backend::Rasc {
            pe_count,
            fpga_count,
            host_threads,
        } => {
            let T1::Whole(idx1) = t1 else {
                unreachable!("the board reads a whole T1")
            };
            let mut board_cfg = cfg.board_config(*pe_count, *fpga_count);
            board_cfg.record_timeline = tracer.enabled();
            let board = RascBoard::new(board_cfg, params.matrix)
                .map_err(PipelineError::OperatorDoesNotFit)?;
            let (stats, report) = run_board_entries(
                params,
                flat0,
                idx0,
                flat1,
                idx1,
                dedup,
                &board,
                *host_threads,
            );
            return Ok((stats, LaneTally::default(), Some(report), 0.0));
        }
    };
    // Units are timed, and their timings become trace spans, only under
    // a wall-clock tracer.
    let trace_wall = tracer.enabled() && tracer.clock() == TraceClock::Wall;
    let banks = (flat0, idx0, flat1);
    let runs = run_chunks(cfg, params, banks, t1, threads, (clock, trace_wall));
    let base = tracer.epoch_seconds() - clock.elapsed().as_secs_f64();
    let (mut stats, mut lanes): (Step2Stats, LaneTally) = Default::default();
    let (mut scatter, mut units) = (0.0, 0);
    for ((candidates, st, mut times, tally), seconds) in runs {
        candidates.iter().for_each(|c| dedup.push(c));
        stats += st;
        lanes += tally;
        scatter += seconds;
        times.iter_mut().for_each(|t| t.item += units);
        units += times.len();
        commit_step2_timings(tracer, base, &times);
    }
    if let T1::Chunks(..) = t1 {
        // A key active in several chunks is one active key.
        stats.active_keys = active_keys(idx0, |k| t1.list_len(k)) as u64;
    }
    Ok((stats, lanes, None, scatter))
}

/// One software step-2 run — candidates, stats, unit timings and lane
/// tally — and the seconds of step 1 it took (a chunk's scatter).
type Step2Run = (TimedRun, f64);

/// Software step 2 over `t1`, one run a chunk (a whole T1 is one
/// chunk); scatters are timed on `clock`, step 2's, and so are its units
/// when `timed`. Each chunk's T1 is scattered, extended and dropped
/// before its worker takes the next. With at least as many chunks as
/// `threads`, that many workers pull whole chunks, largest first, each
/// scattering and extending on its own thread into one reused index,
/// and a scatter's seconds are divided among them; with fewer, the
/// chunks take turns at the configured parallelism.
fn run_chunks(
    cfg: &PipelineConfig,
    params: &Step2Params<'_>,
    (flat0, idx0, flat1): (&FlatBank, &SeedIndex, &FlatBank),
    t1: &T1<'_>,
    threads: usize,
    (clock, timed): (&Instant, bool),
) -> Vec<Step2Run> {
    let whole = 0..1;
    let chunks: Vec<&Range<usize>> = match t1 {
        T1::Whole(_) => vec![&whole],
        T1::Chunks(counts, chunks) => {
            // Largest first: a worker's index never grows past its first.
            let mut by_size: Vec<_> = chunks.iter().collect();
            by_size.sort_by_key(|c| std::cmp::Reverse(counts.held((*c).clone())));
            by_size
        }
    };
    let (workers, inner) = match chunks.len() >= threads {
        true => (threads, 1),
        false => (1, threads),
    };
    let index_threads = if workers > 1 { 1 } else { cfg.index_threads };
    let (next, epoch) = (AtomicUsize::new(0), timed.then_some(clock));
    let work = |worker: u32| {
        let (mut own, mut runs) = (SeedIndex::default(), Vec::new());
        while let Some(&chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
            let (idx1, scatter) = match t1 {
                T1::Whole(idx1) => (*idx1, 0.0),
                T1::Chunks(counts, _) => {
                    let start = clock.elapsed();
                    counts.scatter(chunk.clone(), index_threads, &mut own);
                    let seconds = (clock.elapsed() - start).as_secs_f64();
                    (&own, seconds / workers as f64)
                }
            };
            let mut run = step2::run_software_timed(flat0, idx0, flat1, idx1, params, inner, epoch);
            run.2.iter_mut().for_each(|t| t.worker += worker);
            runs.push((run, scatter));
        }
        runs
    };
    match workers {
        1 => work(0),
        _ => std::thread::scope(|s| {
            let work = &work;
            let handles: Vec<_> = (0..workers as u32)
                .map(|w| s.spawn(move || work(w)))
                .collect();
            let joined = handles.into_iter().map(|h| h.join());
            joined
                .flat_map(|r| r.expect("step-2 chunk worker panicked"))
                .collect()
        }),
    }
}

/// Step 2 on simulated hardware: gather one [`Entry`] per active key
/// (in key order), stream the entries through `board` and push each
/// entry's surviving hits into `dedup` as the entry completes (entry
/// *completion* order; the dedup is order-invariant). The returned
/// stats leave `candidates` at zero for the caller to count.
#[allow(clippy::too_many_arguments)]
fn run_board_entries(
    params: &Step2Params<'_>,
    flat0: &FlatBank,
    idx0: &SeedIndex,
    flat1: &FlatBank,
    idx1: &SeedIndex,
    dedup: &mut AnchorDedup<'_>,
    board: &RascBoard,
    host_threads: usize,
) -> (Step2Stats, BoardReport) {
    // Keys with work on both sides, in key order.
    let active: Vec<u32> = (0..idx0.key_count() as u32)
        .filter(|&k| !idx0.list(k).is_empty() && !idx1.list(k).is_empty())
        .collect();

    let mut stats = Step2Stats {
        active_keys: active.len() as u64,
        ..Step2Stats::default()
    };
    for &k in &active {
        stats.pairs += idx0.list(k).len() as u64 * idx1.list(k).len() as u64;
    }

    let (span, n_ctx) = (params.span, params.n_ctx);
    let entries = active.iter().map(|&key| {
        let mut il0 = Vec::new();
        let mut il1 = Vec::new();
        step2::gather_windows(flat0, idx0.list(key), span, n_ctx, &mut il0);
        step2::gather_windows(flat1, idx1.list(key), span, n_ctx, &mut il1);
        Entry { il0, il1 }
    });

    let report = board.run_stream(entries, host_threads, |entry_idx, hits| {
        let key = active[entry_idx as usize];
        let list0 = idx0.list(key);
        let list1 = idx1.list(key);
        for h in hits {
            dedup.push(&Candidate {
                pos0: list0[h.i0 as usize],
                pos1: list1[h.i1 as usize],
                score: h.score,
            });
        }
    });
    (stats, report)
}

/// A protein-bank-vs-protein-bank run for `core`'s unit tests:
/// [`Pipeline::search_stats`], [`Pipeline::prepare_bank`] for each
/// bank, then [`Pipeline::try_run_prepared_traced`], untraced.
#[cfg(test)]
pub(crate) fn compare_banks(
    config: PipelineConfig,
    bank0: &Bank,
    bank1: &Bank,
    rec: &dyn Recorder,
) -> PipelineOutput {
    let (pipeline, matrix) = (Pipeline::new(config), psc_score::blosum62());
    let stats = pipeline.search_stats(matrix).unwrap();
    let prep0 = pipeline.prepare_bank(0, bank0, rec);
    let prep1 = pipeline.prepare_bank(1, bank1, rec);
    let tracer = &psc_telemetry::NullTracer;
    let output = pipeline.try_run_prepared_traced(&prep0, &prep1, matrix, stats, rec, tracer);
    output.unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SeedChoice, Step2Backend};
    use psc_seqio::Seq;
    use psc_telemetry::NullRecorder;

    fn bank(seqs: &[&[u8]]) -> Bank {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| Seq::protein(format!("s{i}"), s))
            .collect()
    }

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            n_ctx: 8,
            threshold: 22,
            max_evalue: 10.0, // tiny banks: keep permissive
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn finds_identical_pair() {
        let s = b"MKVLAWRNDCQEHFYWMKVLAWRNDCQEHFYW".as_slice();
        let b0 = bank(&[s]);
        let b1 = bank(&[s]);
        let out = compare_banks(small_config(), &b0, &b1, &NullRecorder);
        assert_eq!(out.stats.reported, out.hsps.len());
        assert!(!out.hsps.is_empty(), "stats: {:?}", out.stats);
        let h = &out.hsps[0];
        assert_eq!((h.start0, h.end0), (0, 32));
        assert_eq!((h.start1, h.end1), (0, 32));
        assert!(out.profile.total() > 0.0);
        assert!(out.board.is_none());
    }

    #[test]
    fn unrelated_banks_stay_silent() {
        let b0 = bank(&[b"MKVLAWMKVLAWMKVLAWMKVLAW"]);
        let b1 = bank(&[b"GGGGGGGGGGGGGGGGGGGGGGGG"]);
        let out = compare_banks(small_config(), &b0, &b1, &NullRecorder);
        assert!(out.hsps.is_empty());
        assert_eq!(out.stats.step2.pairs, 0);
    }

    /// Six 150-residue sequences a bank, two of them shared →
    /// guaranteed hits.
    fn overlapping_banks() -> (Bank, Bank) {
        let seq = |i: u32| -> Vec<u8> {
            (0..150u32)
                .map(|j| (((i * 13 + j * 11) % 89) % 20) as u8)
                .collect()
        };
        let bank = |ids: std::ops::Range<u32>| -> Bank {
            ids.map(|i| Seq::from_codes(format!("s{i}"), seq(i), psc_seqio::SeqKind::Protein))
                .collect()
        };
        (bank(0..6), bank(4..10))
    }

    /// Two protein banks compared under `edit`, held to the scalar
    /// kernel on the scalar backend. `tests/lattice.rs` holds every
    /// configuration to that oracle through the engine; these keep the
    /// bank-vs-bank steps on it, and check what each configuration
    /// records.
    fn against_the_oracle(edit: impl Fn(&mut PipelineConfig)) -> PipelineOutput {
        let (b0, b1) = overlapping_banks();
        let mut oracle = small_config();
        oracle.step2_kernel = psc_align::KernelChoice::Scalar;
        let mut cfg = small_config();
        edit(&mut cfg);
        let want = compare_banks(oracle, &b0, &b1, &NullRecorder);
        let got = compare_banks(cfg, &b0, &b1, &NullRecorder);
        assert!(!want.hsps.is_empty());
        assert_eq!(want.hsps, got.hsps);
        assert_eq!(want.stats, got.stats);
        got
    }

    const RASC: Step2Backend = Step2Backend::Rasc {
        pe_count: 64,
        fpga_count: 2,
        host_threads: 2,
    };

    #[test]
    fn backends_agree() {
        against_the_oracle(|c| c.backend = Step2Backend::SoftwareParallel { threads: 4 });
        let rasc = against_the_oracle(|c| c.backend = RASC);
        assert!(rasc.board.is_some());
        assert!(rasc.profile.step2_accelerated.is_some());
    }

    #[test]
    fn kernel_choices_agree_and_are_recorded() {
        use psc_align::{KernelBackend, KernelChoice};
        let scalar = against_the_oracle(|c| c.step2_kernel = KernelChoice::Scalar);
        assert_eq!(scalar.profile.step2_kernel, Some(KernelBackend::Scalar));
        for choice in [
            KernelChoice::Auto,
            KernelChoice::Profile,
            KernelChoice::Simd,
            KernelChoice::Wide,
        ] {
            let out = against_the_oracle(|c| c.step2_kernel = choice);
            let recorded = out.profile.step2_kernel.expect("software kernel recorded");
            assert_ne!(recorded, KernelBackend::Scalar, "{choice:?} fell back");
        }
    }

    #[test]
    fn schedules_agree_and_lane_fill_is_recorded() {
        use crate::step2::Step2Schedule;
        for schedule in [Step2Schedule::Contiguous, Step2Schedule::Bucketed] {
            for threads in [1, 4] {
                against_the_oracle(|c| {
                    c.step2_schedule = schedule;
                    c.backend = Step2Backend::SoftwareParallel { threads };
                });
            }
        }
        // What the lane kernels walked on these banks, at one worker and
        // four: tiles, useful and total lane slots, each by log2
        // pair-mass bucket too, and `step2.lane_fill`'s count, sum, min
        // and max.
        use psc_align::KernelChoice::{Simd, Wide};
        use Step2Schedule::{Bucketed, Contiguous};
        const USEFUL: &str = "useful=20524 b07=2652 b09=2380 b10=12332 b11=3160";
        const TOTAL: [&str; 4] = [
            "total=30784 b07=8544 b09=3840 b10=13280 b11=5120 fill=[49, 2612, 28, 93]",
            "total=30624 b07=8544 b09=3808 b10=13216 b11=5056 fill=[49, 2623, 28, 93]",
            "total=56448 b07=17088 b09=7680 b10=26560 b11=5120 fill=[49, 1349, 14, 62]",
            "total=56192 b07=17088 b09=7616 b10=26432 b11=5056 fill=[49, 1355, 14, 62]",
        ];
        let runs = [
            (Simd, Contiguous),
            (Simd, Bucketed),
            (Wide, Contiguous),
            (Wide, Bucketed),
        ];
        let runs = runs.into_iter().zip(TOTAL);
        let (b0, b1) = overlapping_banks();
        for (((kernel, schedule), want), threads) in runs.flat_map(|r| [(r, 1), (r, 4)]) {
            let rec = psc_telemetry::MemRecorder::new();
            let cfg = PipelineConfig {
                step2_kernel: kernel,
                step2_schedule: schedule,
                backend: Step2Backend::SoftwareParallel { threads },
                ..small_config()
            };
            compare_banks(cfg, &b0, &b1, &rec);
            let snap = rec.snapshot();
            let tag = format!("{kernel:?} {schedule:?} threads={threads}");
            let name = format!("{kernel:?}").to_lowercase();
            assert_eq!(snap.meta["step2.kernel"], name, "{tag}");
            assert_eq!(snap.counters["step2.simd_tiles"], 51, "{tag}");
            let slots = |kind: &str| {
                let key = format!("step2.lane_slots_{kind}");
                let buckets = snap.counters.range(format!("{key}.")..format!("{key}/"));
                let buckets: String = buckets
                    .map(|(k, v)| format!(" {}={v}", &k[k.len() - 3..]))
                    .collect();
                format!("{kind}={}{buckets}", snap.counters[&key])
            };
            assert_eq!(slots("useful"), USEFUL, "{tag}");
            let h = &snap.histograms["step2.lane_fill"];
            let fill = [h.count, h.sum, h.min, h.max];
            assert_eq!(format!("{} fill={fill:?}", slots("total")), want, "{tag}");
        }
    }

    #[test]
    fn exact_seed_ablation_runs() {
        let s = b"MKVLAWRNDCQEHFYWMKVLAWRNDCQEHFYW".as_slice();
        let b0 = bank(&[s]);
        let b1 = bank(&[s]);
        let cfg = PipelineConfig {
            seed: SeedChoice::Exact(4),
            ..small_config()
        };
        let out = compare_banks(cfg, &b0, &b1, &NullRecorder);
        assert!(!out.hsps.is_empty());
    }

    #[test]
    fn soft_masking_suppresses_low_complexity_seeding() {
        // A poly-A homopolymer pair seeds furiously without masking and
        // not at all with it; a normal homologous pair is found either
        // way (step 3 sees the original residues).
        let mut seqs0 = vec![Seq::protein("real", b"MKVLAWRNDCQEHFYWMKVLAWRNDCQEHFYW")];
        seqs0.push(Seq::protein("junk", &[b'A'; 80]));
        let b0 = Bank::from_seqs(seqs0.clone());
        let b1 = Bank::from_seqs(seqs0);
        let plain = compare_banks(small_config(), &b0, &b1, &NullRecorder);
        let masked_cfg = PipelineConfig {
            mask: Some(psc_seqio::MaskConfig::default()),
            ..small_config()
        };
        let masked = compare_banks(masked_cfg, &b0, &b1, &NullRecorder);
        assert!(
            masked.stats.step2.pairs < plain.stats.step2.pairs / 2,
            "masking should kill homopolymer pairs: {} vs {}",
            masked.stats.step2.pairs,
            plain.stats.step2.pairs
        );
        // The real pair is still reported.
        assert!(masked
            .hsps
            .iter()
            .any(|h| h.seq0 == 0 && h.seq1 == 0 && h.end0 - h.start0 == 32));
    }

    #[test]
    fn anchor_dedup_is_push_order_invariant() {
        // Two 32-residue sequences per bank → flat positions 0..64 with
        // a sequence break at 32. The candidate set exercises chained
        // fold windows, an exact score tie inside one group (strict `>`
        // must keep the lower-local1 member regardless of push order),
        // a window break, and several (seq0, seq1, diag) buckets.
        let s = b"MKVLAWRNDCQEHFYWMKVLAWRNDCQEHFYW".as_slice();
        let b0 = bank(&[s, s]);
        let b1 = bank(&[s, s]);
        let f0 = FlatBank::from_bank(&b0);
        let f1 = FlatBank::from_bank(&b1);
        let cand = |pos0: u32, pos1: u32, score: i32| Candidate { pos0, pos1, score };
        let base = vec![
            cand(0, 0, 10),
            cand(4, 4, 12), // ties with the next; first-in-position-order wins
            cand(9, 9, 12),
            cand(20, 20, 5), // past the fold window: its own anchor
            cand(0, 4, 7),
            cand(2, 6, 9),
            cand(33, 1, 15),  // seq 1 vs seq 0
            cand(5, 40, 6),   // seq 0 vs seq 1
            cand(40, 45, 6),  // seq 1 vs seq 1
            cand(44, 49, 20), // same diagonal, inside the window
        ];
        let run = |cands: &[Candidate]| {
            let mut d = AnchorDedup::new(&f0, &f1, 8);
            for c in cands {
                d.push(c);
            }
            assert_eq!(d.pushed(), cands.len() as u64);
            d.finish()
        };
        let reference = run(&base);
        assert!(reference.len() >= 5, "want several buckets: {reference:?}");
        let mut rng = psc_seqio::prng::SplitMix64::new(0x243f_6a88);
        for trial in 0..32 {
            let mut v = base.clone();
            let shift = trial % v.len();
            v.rotate_left(shift);
            for i in (1..v.len()).rev() {
                v.swap(i, rng.range(0..=i));
            }
            assert_eq!(run(&v), reference, "trial {trial}");
        }
    }

    #[test]
    fn parallel_step3_matches_sequential() {
        for backend in [
            Step2Backend::SoftwareScalar,
            Step2Backend::SoftwareParallel { threads: 4 },
            RASC,
        ] {
            against_the_oracle(|c| {
                c.backend = backend.clone();
                c.step3_threads = 4;
            });
        }
    }

    #[test]
    fn anchor_dedup_limits_step3() {
        // A long identical pair seeds at every position; anchors must be
        // far fewer than candidates.
        let s: Vec<u8> = (0..600u32).map(|j| ((j * 7 + j / 13) % 20) as u8).collect();
        let b0: Bank =
            std::iter::once(Seq::from_codes("a", s.clone(), psc_seqio::SeqKind::Protein)).collect();
        let b1: Bank =
            std::iter::once(Seq::from_codes("b", s, psc_seqio::SeqKind::Protein)).collect();
        let out = compare_banks(small_config(), &b0, &b1, &NullRecorder);
        assert!(out.stats.step2.candidates > 0);
        assert!(
            out.stats.anchors * 3 < out.stats.step2.candidates,
            "anchors {} vs candidates {}",
            out.stats.anchors,
            out.stats.step2.candidates
        );
        assert_eq!(out.hsps.len(), 1, "one clean alignment expected");
    }
}
