//! The RASC-100 board: one or two FPGAs, NUMAlink, host dispatch.
//!
//! Mirrors the paper's usage: the single-FPGA runs of Table 2/4 use one
//! operator; the dual-FPGA runs of Table 3 split the IL0 side of every
//! entry across two operators driven by independent host processes (the
//! paper's pthread version splits the protein bank the same way), with
//! per-dispatch synchronisation cost and a shared result link — the two
//! effects that cap the measured dual-FPGA speedup at 1.8× instead of 2×.
//!
//! Timing is *simulated* (cycles at the configured clock plus the DMA
//! model); the number of host threads used to crunch the simulation only
//! affects how fast the simulation itself runs, never the reported
//! numbers.
//!
//! ## Fault handling
//!
//! When a [`FaultPlan`] is installed, each per-FPGA dispatch may fault
//! (see [`crate::fault`] for the kinds and their detection points). The
//! board then retries the dispatch under the configured
//! [`RecoveryPolicy`] — charging the wasted attempt plus an escalating
//! simulated backoff to that FPGA's cycle account — and, once retries
//! are exhausted, either recomputes the shard with the host software
//! kernel (degraded mode) or fails the run with [`BoardFault`]. Every
//! decision is a pure function of `(plan, entry, fpga, attempt)`, so
//! results *and* the report are deterministic regardless of
//! `host_threads`, and recovered output is bit-identical to the
//! fault-free run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

use psc_score::SubstitutionMatrix;

use crate::config::OperatorConfig;
use crate::dma::DmaModel;
use crate::fault::{
    self, BoardFault, FaultInjector, FaultKind, FaultPlan, FaultSummary, RecoveryPolicy,
};
use crate::functional::FunctionalOperator;
use crate::operator::{pe_utilization, Hit};
use crate::resource::{ResourceError, ResourceModel};

/// Simulated cycles an ADR dispatch handshake burns before the
/// protocol check rejects it (shared with the fleet replay).
pub(crate) const ADR_HANDSHAKE_CYCLES: u64 = 8;

/// Entry results a simulation worker hands to the draining thread at
/// once. One channel crossing per entry wakes that thread thousands of
/// times a run, which on `board_sim` cost as much as the scoring the
/// second worker saved (EXPERIMENTS.md, "Board simulator on the lane
/// kernels").
const RESULT_CHUNK: usize = 64;

/// Board-level configuration.
#[derive(Clone, Debug)]
pub struct BoardConfig {
    pub operator: OperatorConfig,
    /// 1 or 2 (the RASC-100 carries two LX200s).
    pub fpga_count: usize,
    pub dma: DmaModel,
    /// Host-side synchronisation cost per dispatched entry *per extra
    /// FPGA* (pthread coordination, paper §4.1), seconds.
    pub sync_per_entry: f64,
    /// Fault injection plan; `None` (the default) runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Retry / degradation policy applied when a dispatch faults.
    pub recovery: RecoveryPolicy,
    /// Emit the per-`(entry, fpga)` DMA/compute timeline on the report
    /// (`BoardReport::timeline`) for flight-recorder export. Off by
    /// default: plain runs should not grow a segment per entry.
    pub record_timeline: bool,
}

impl BoardConfig {
    pub fn new(operator: OperatorConfig, fpga_count: usize) -> BoardConfig {
        BoardConfig {
            operator,
            fpga_count,
            dma: DmaModel::default(),
            sync_per_entry: 1.5e-6,
            fault_plan: None,
            recovery: RecoveryPolicy::default(),
            record_timeline: false,
        }
    }
}

/// One unit of work: the window streams of one index entry.
#[derive(Clone, Debug, Default)]
pub struct Entry {
    /// Concatenated IL0 windows.
    pub il0: Vec<u8>,
    /// Concatenated IL1 windows.
    pub il1: Vec<u8>,
}

/// Timing report of a workload run.
#[derive(Clone, Debug, Default)]
pub struct BoardReport {
    /// Hardware cycles per FPGA.
    pub fpga_cycles: Vec<u64>,
    /// Stall cycles per FPGA (result-path backpressure).
    pub stall_cycles: Vec<u64>,
    /// Busy PE·cycles per FPGA (utilization reporting). Only useful
    /// work counts: cycles burned by faulted attempts and backoff
    /// depress utilization, as they would on real hardware.
    pub busy_pe_cycles: Vec<u64>,
    /// Result-FIFO high-water mark per FPGA (max over entries).
    pub fifo_peak: Vec<u64>,
    /// Bytes streamed to / from the board (every retry re-streams its
    /// entry over NUMAlink).
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Pure NUMAlink wire time of the input / output byte streams.
    pub wire_in_seconds: f64,
    pub wire_out_seconds: f64,
    /// Entries dispatched.
    pub entries: u64,
    /// Hits delivered over the board's result link (degraded entries
    /// are recomputed host-side and do not cross it).
    pub hit_count: u64,
    /// Simulated wall time of the accelerated section: the slowest
    /// FPGA's double-buffered DMA/compute timeline (input streaming of
    /// entry *k+1* overlaps compute of entry *k*), plus the shared
    /// result link, plus host synchronisation and the one-time
    /// bitstream load.
    pub accelerated_seconds: f64,
    /// Seconds of the slowest FPGA's timeline during which its DMA
    /// engine and its PE array were busy *simultaneously* (the
    /// double-buffer payoff).
    pub overlap_seconds: f64,
    /// `overlap_seconds` as a fraction of that FPGA's total timeline
    /// (0 when the board did no work).
    pub overlap_occupancy: f64,
    /// Of which: host synchronisation overhead.
    pub sync_seconds: f64,
    /// Of which: one-time setup and dispatch handshakes.
    pub setup_seconds: f64,
    /// Fault injection / recovery counters for the run.
    pub faults: FaultSummary,
    /// Name of the host kernel the simulator scored with
    /// ([`FunctionalOperator::host_kernel`]). A fact about the host
    /// wall time of the run, not a simulated statistic: it varies with
    /// the machine while every other field repeats exactly.
    pub host_kernel: &'static str,
    /// Per-`(entry, fpga)` double-buffer timeline, in dispatch order.
    /// Empty unless [`BoardConfig::record_timeline`] is set. On the
    /// simulated device clock (seconds from the accelerated section's
    /// start), deterministic for every `host_threads`.
    pub timeline: Vec<BoardSegment>,
}

/// One `(entry, fpga)` record of the double-buffered board timeline:
/// when its input DMA ran, when its compute ran (including retry
/// attempts and backoff), and what its recovery path did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoardSegment {
    pub entry: u64,
    pub fpga: usize,
    /// Input-stream window on the DMA engine, seconds.
    pub dma_start: f64,
    pub dma_end: f64,
    /// PE-array window, seconds. Includes cycles burned by faulted
    /// attempts and `backoff_seconds` of retry backoff.
    pub compute_start: f64,
    pub compute_end: f64,
    /// Of the compute window: simulated retry backoff.
    pub backoff_seconds: f64,
    /// Fault-recovery retries this record took.
    pub retries: u32,
    /// Whether recovery exhausted retries and fell back to software.
    pub degraded: bool,
}

impl BoardReport {
    /// Utilization of the best-utilized FPGA's PE array
    /// (see [`crate::operator::pe_utilization`] for the formula).
    pub fn utilization(&self, pe_count: usize) -> f64 {
        self.fpga_cycles
            .iter()
            .zip(&self.busy_pe_cycles)
            .map(|(&c, &b)| pe_utilization(b, c, pe_count))
            .fold(0.0, f64::max)
    }
}

/// Per-FPGA accumulation while streaming.
#[derive(Clone, Copy, Debug, Default)]
struct FpgaTally {
    cycles: u64,
    stalls: u64,
    busy: u64,
    bytes_in: u64,
    hits: u64,
    /// Result-FIFO high-water mark (max over entries).
    peak: u64,
}

/// What one entry cost one FPGA (cycles across all attempts plus every
/// byte re-streamed) — the input of the double-buffered timeline in
/// [`RascBoard::report_from`]. Collected per worker and merged in
/// `(entry, fpga)` order, so the timeline fold is independent of
/// `host_threads`.
#[derive(Clone, Copy, Debug)]
struct EntryCost {
    entry: u64,
    fpga: usize,
    cycles: u64,
    bytes_in: u64,
    /// Recovery activity of this record, for the timeline.
    retries: u32,
    backoff_cycles: u64,
    degraded: bool,
}

/// One simulation worker's private state: its operators (one per
/// FPGA) and everything it accumulates while streaming. Merged across
/// workers once the stream ends.
struct Worker {
    ops: Vec<FunctionalOperator>,
    tallies: Vec<FpgaTally>,
    faults: FaultSummary,
    costs: Vec<EntryCost>,
}

/// The host-side scaffold shared by [`RascBoard::run_stream`] and the
/// fleet's Phase-A precompute: `host_threads` workers, each with its own
/// `init()` state, claim `(index, entry)` in index order straight from
/// the shared source — gathering an entry (the iterator's `next`) is
/// short next to scoring it, so the lock is rarely contended and no
/// feeder thread or entry queue is needed — run `process` on it, and
/// hand the results to `drain` on the calling thread, in bursts of up
/// to `RESULT_CHUNK` and possibly out of index order. One thread runs
/// inline with no channel at all.
///
/// The first `Err` stops further claims; the error returned is that of
/// the earliest failing entry. Entries are claimed in index order and
/// every claimed entry is processed, so the globally earliest failure
/// is always among the errors collected — whichever thread won the race
/// to the abort flag (`drain` may already have seen later entries by
/// then). On success returns the number of entries streamed and every
/// worker's final state.
pub(crate) fn stream_entries<I, S, T>(
    entries: I,
    host_threads: usize,
    init: impl Fn() -> S + Sync,
    process: impl Fn(&mut S, u64, &Entry) -> Result<T, BoardFault> + Sync,
    mut drain: impl FnMut(T),
) -> Result<(u64, Vec<S>), BoardFault>
where
    I: Iterator<Item = Entry> + Send,
    S: Send,
    T: Send,
{
    let host_threads = host_threads.max(1);
    let source = Mutex::new((0u64, entries));
    let abort = AtomicBool::new(false);
    let claim = || {
        let mut src = source
            .lock()
            .expect("a worker panicked inside the entry iterator");
        if abort.load(Ordering::Relaxed) {
            return None;
        }
        let entry = src.1.next()?;
        src.0 += 1;
        Some((src.0 - 1, entry))
    };
    let work = |emit: &mut dyn FnMut(Result<T, BoardFault>) -> bool| {
        let mut state = init();
        while let Some((idx, entry)) = claim() {
            let out = process(&mut state, idx, &entry);
            let failed = out.is_err();
            // `emit` reports false once nobody is receiving any more.
            if !emit(out) || failed {
                abort.store(true, Ordering::Relaxed);
            }
        }
        state
    };
    let mut first_err: Option<BoardFault> = None;
    let mut accept = |res: Result<T, BoardFault>| match res {
        Ok(t) => drain(t),
        Err(e) => {
            if first_err.is_none_or(|p| e.entry < p.entry) {
                first_err = Some(e);
            }
        }
    };
    let states = if host_threads == 1 {
        vec![work(&mut |res| {
            accept(res);
            true
        })]
    } else {
        std::thread::scope(|s| {
            // Created in here so a panicking `drain` drops the receiver
            // before the scope joins: blocked senders wake up and stop.
            let (tx, rx) = sync_channel::<Vec<Result<T, BoardFault>>>(host_threads * 2);
            let handles: Vec<_> = (0..host_threads)
                .map(|_| {
                    let (tx, work) = (tx.clone(), &work);
                    s.spawn(move || {
                        let mut chunk = Vec::new();
                        let state = work(&mut |res| {
                            chunk.push(res);
                            chunk.len() < RESULT_CHUNK
                                || tx.send(std::mem::take(&mut chunk)).is_ok()
                        });
                        // The receiver only goes away with the run.
                        let _ = tx.send(chunk);
                        state
                    })
                })
                .collect();
            drop(tx);
            rx.iter().flatten().for_each(&mut accept);
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    match first_err {
        Some(e) => Err(e),
        None => {
            let claimed = source
                .into_inner()
                .expect("a worker panicked inside the entry iterator")
                .0;
            Ok((claimed, states))
        }
    }
}

/// A simulated RASC-100 board.
#[derive(Debug)]
pub struct RascBoard {
    config: BoardConfig,
    matrix: SubstitutionMatrix,
}

impl RascBoard {
    /// Build a board; every FPGA must fit the configured operator.
    pub fn new(
        config: BoardConfig,
        matrix: &SubstitutionMatrix,
    ) -> Result<RascBoard, ResourceError> {
        assert!(
            (1..=2).contains(&config.fpga_count),
            "RASC-100 has one or two FPGAs"
        );
        config.operator.validate().expect("invalid operator config");
        ResourceModel::check(&config.operator)?;
        Ok(RascBoard {
            config,
            matrix: matrix.clone(),
        })
    }

    pub fn config(&self) -> &BoardConfig {
        &self.config
    }

    /// Contiguous IL0 shard `[lo, hi)` (in windows) assigned to FPGA `f`
    /// for an entry of `k0` windows.
    fn shard(&self, k0: usize, f: usize) -> (usize, usize) {
        let per = k0.div_ceil(self.config.fpga_count);
        ((f * per).min(k0), ((f + 1) * per).min(k0))
    }

    /// Process one entry on all FPGAs (used by the streaming workers),
    /// retrying and degrading per the recovery policy. Returns the
    /// merged hit list (FPGA 0's hits first, `i0` rebased to the full
    /// entry) and updates the worker's tallies and fault counters.
    fn process_entry(
        &self,
        worker: &mut Worker,
        entry_idx: u64,
        entry: &Entry,
        injector: Option<&FaultInjector>,
    ) -> Result<Vec<Hit>, BoardFault> {
        let Worker {
            ops,
            tallies,
            faults,
            costs,
        } = worker;
        let l = self.config.operator.window_len;
        let k0 = entry.il0.len() / l;
        let k1 = entry.il1.len() / l;
        let policy = self.config.recovery;
        let mut merged = Vec::new();
        for (f, op) in ops.iter_mut().enumerate() {
            let (lo, hi) = self.shard(k0, f);
            if lo >= hi {
                continue;
            }
            // Snapshot the tally so everything this entry charges the
            // FPGA (all attempts, backoff, re-streamed bytes) lands in
            // one timeline record.
            let (cycles_before, bytes_before) = (tallies[f].cycles, tallies[f].bytes_in);
            let shard = &entry.il0[lo * l..hi * l];
            let budget =
                policy.watchdog_budget(op.cycles_lower_bound(hi - lo, k1), ((hi - lo) * k1) as u64);
            let mut attempt = 0u32;
            let mut record_backoff = 0u64;
            let mut record_degraded = false;
            let mut hits = loop {
                let fault = injector.and_then(|i| i.fire(entry_idx, f, attempt));
                let ctx = (entry_idx, f, attempt);
                match self.run_attempt(
                    op,
                    shard,
                    &entry.il1,
                    fault,
                    injector,
                    ctx,
                    budget,
                    &mut tallies[f],
                    faults,
                ) {
                    Ok(hits) => break hits,
                    Err(kind) => {
                        if attempt >= policy.max_retries {
                            if policy.degrade {
                                faults.entries_degraded += 1;
                                record_degraded = true;
                                break fault::score_entry_software(
                                    &self.matrix,
                                    &self.config.operator,
                                    shard,
                                    &entry.il1,
                                );
                            }
                            return Err(BoardFault {
                                entry: entry_idx,
                                fpga: f,
                                kind,
                                attempts: attempt + 1,
                            });
                        }
                        faults.retries += 1;
                        let backoff = policy.backoff(attempt);
                        tallies[f].cycles += backoff;
                        faults.backoff_cycles += backoff;
                        record_backoff += backoff;
                        attempt += 1;
                    }
                }
            };
            for h in &mut hits {
                h.i0 += lo as u32;
            }
            merged.extend(hits);
            costs.push(EntryCost {
                entry: entry_idx,
                fpga: f,
                cycles: tallies[f].cycles - cycles_before,
                bytes_in: tallies[f].bytes_in - bytes_before,
                retries: attempt,
                backoff_cycles: record_backoff,
                degraded: record_degraded,
            });
        }
        Ok(merged)
    }

    /// One dispatch attempt of one shard, with `fault` injected.
    /// `Ok(hits)` charges the successful run to the tally; `Err(kind)`
    /// charges whatever the failure burned before its detection point.
    #[allow(clippy::too_many_arguments)]
    fn run_attempt(
        &self,
        op: &mut FunctionalOperator,
        shard: &[u8],
        il1: &[u8],
        fault: Option<FaultKind>,
        injector: Option<&FaultInjector>,
        ctx: (u64, usize, u32),
        budget: u64,
        t: &mut FpgaTally,
        fs: &mut FaultSummary,
    ) -> Result<Vec<Hit>, FaultKind> {
        // Every dispatch (re-)streams the entry over NUMAlink.
        t.bytes_in += (shard.len() + il1.len()) as u64;
        let Some(kind) = fault else {
            let r = op.run_entry(shard, il1);
            t.cycles += r.cycles;
            t.stalls += r.stall_cycles;
            t.busy += r.busy_pe_cycles;
            t.hits += r.hits.len() as u64;
            t.peak = t.peak.max(r.fifo_peak);
            return Ok(r.hits);
        };
        fs.faults_injected += 1;
        match kind {
            FaultKind::DmaCorrupt => {
                // The board checksums the input stream before raising
                // "data ready": a wire flip is caught after the
                // stream-in cycles, before any PE turns over.
                let sent = fault::stream_checksum(&[shard, il1]);
                let bit = injector.map_or(0, |i| i.roll(ctx.0, ctx.1, ctx.2, 32)) as u32;
                let received = sent ^ (1u64 << bit);
                debug_assert_ne!(sent, received);
                t.cycles += (shard.len() + il1.len()) as u64;
                fs.checksum_mismatches += 1;
                fs.faults_detected += 1;
                Err(kind)
            }
            FaultKind::DmaTruncate | FaultKind::AdrFault => {
                // The ADR count registers disagree with what arrived,
                // or the command FSM latched `Status::Fault`: caught at
                // the dispatch handshake before any data streams.
                t.cycles += ADR_HANDSHAKE_CYCLES;
                fs.protocol_faults += 1;
                fs.faults_detected += 1;
                Err(kind)
            }
            FaultKind::FifoStall => {
                // The output controller wedges mid-entry; the host
                // watchdog kills the dispatch when its budget expires.
                t.cycles += budget + 1;
                fs.watchdog_trips += 1;
                fs.faults_detected += 1;
                Err(kind)
            }
            FaultKind::FifoOverflow | FaultKind::PeFlip => {
                // Compute completes; the corruption rides the result
                // stream and the host checks the received results
                // against the checksum the operator committed.
                let r = op.run_entry(shard, il1);
                t.cycles += r.cycles;
                t.stalls += r.stall_cycles;
                t.peak = t.peak.max(r.fifo_peak);
                let committed = fault::hits_checksum(&r.hits);
                let mut received = r.hits;
                if kind == FaultKind::FifoOverflow {
                    // Overflow sheds the freshest (tail) results.
                    let keep = received.len() - received.len().min(1 + received.len() / 8);
                    received.truncate(keep);
                } else if let (Some(i), false) = (injector, received.is_empty()) {
                    let idx = i.roll(ctx.0, ctx.1, ctx.2, received.len() as u64) as usize;
                    received[idx].score ^= 1 << 4;
                }
                if fault::hits_checksum(&received) == committed {
                    // Nothing to damage (empty result set): the fault
                    // was harmless and the attempt stands.
                    t.busy += r.busy_pe_cycles;
                    t.hits += received.len() as u64;
                    return Ok(received);
                }
                fs.checksum_mismatches += 1;
                fs.faults_detected += 1;
                Err(kind)
            }
        }
    }

    /// Run a streamed workload with `host_threads` simulation workers.
    ///
    /// `sink` receives `(entry_index, hits)` — when `host_threads > 1`
    /// possibly out of entry order, and in bursts (see
    /// [`stream_entries`]). The returned report is deterministic
    /// regardless of thread count, and so is the error: when recovery
    /// is exhausted with degradation disabled, the fault of the
    /// earliest failing entry is returned (the sink may already have
    /// seen other entries by then).
    pub fn run_stream<I>(
        &self,
        entries: I,
        host_threads: usize,
        mut sink: impl FnMut(u64, Vec<Hit>),
    ) -> Result<BoardReport, BoardFault>
    where
        I: Iterator<Item = Entry> + Send,
    {
        let nf = self.config.fpga_count;
        let injector = self.config.fault_plan.clone().map(FaultInjector::new);
        let injector = injector.as_ref();
        let (n_entries, workers) = stream_entries(
            entries,
            host_threads,
            || Worker {
                ops: self.make_operators(),
                tallies: vec![FpgaTally::default(); nf],
                faults: FaultSummary::default(),
                costs: Vec::new(),
            },
            |worker, idx, entry| {
                self.process_entry(worker, idx, entry, injector)
                    .map(|hits| (idx, hits))
            },
            |(idx, hits)| sink(idx, hits),
        )?;

        let mut tallies = vec![FpgaTally::default(); nf];
        let mut faults = FaultSummary::default();
        let mut costs: Vec<EntryCost> = Vec::new();
        for w in workers {
            faults.merge(&w.faults);
            costs.extend(w.costs);
            for (t, l) in tallies.iter_mut().zip(w.tallies) {
                t.cycles += l.cycles;
                t.stalls += l.stalls;
                t.busy += l.busy;
                t.bytes_in += l.bytes_in;
                t.hits += l.hits;
                t.peak = t.peak.max(l.peak);
            }
        }
        // Workers interleave entries; the timeline fold must see them
        // in dispatch order to stay thread-count invariant.
        costs.sort_unstable_by_key(|c| (c.entry, c.fpga));
        Ok(self.report_from(&tallies, n_entries, faults, &costs))
    }

    /// Run a workload held in memory; returns per-entry hits in entry
    /// order plus the report.
    pub fn run_workload(
        &self,
        entries: &[Entry],
    ) -> Result<(Vec<Vec<Hit>>, BoardReport), BoardFault> {
        let mut hits: Vec<Vec<Hit>> = vec![Vec::new(); entries.len()];
        let report = self.run_stream(entries.iter().cloned(), 1, |idx, h| {
            hits[idx as usize] = h;
        })?;
        Ok((hits, report))
    }

    fn make_operators(&self) -> Vec<FunctionalOperator> {
        (0..self.config.fpga_count)
            .map(|_| {
                FunctionalOperator::new(self.config.operator.clone(), &self.matrix)
                    .expect("validated at construction")
            })
            .collect()
    }

    fn report_from(
        &self,
        tallies: &[FpgaTally],
        n_entries: u64,
        faults: FaultSummary,
        costs: &[EntryCost],
    ) -> BoardReport {
        let clock = self.config.operator.clock_hz as f64;
        let nf = self.config.fpga_count;
        let mut report = BoardReport {
            entries: n_entries,
            faults,
            host_kernel: FunctionalOperator::host_kernel(&self.config.operator, &self.matrix)
                .name(),
            ..BoardReport::default()
        };
        let mut total_hits = 0u64;
        for t in tallies {
            report.fpga_cycles.push(t.cycles);
            report.stall_cycles.push(t.stalls);
            report.busy_pe_cycles.push(t.busy);
            report.fifo_peak.push(t.peak);
            report.bytes_in += t.bytes_in;
            total_hits += t.hits;
        }
        // Double-buffered dispatch timeline, per FPGA: the DMA engine
        // streams entry k+1 into the idle half of the entry buffer while
        // the PEs chew on entry k. DMA of record k may start once the
        // engine is free *and* the buffer half last filled two records
        // ago has been consumed; compute follows its own DMA completion
        // and the previous compute. `costs` arrives in (entry, fpga)
        // order, so this f64 fold is identical for every host thread
        // count.
        let mut worst_span = 0.0f64;
        for f in 0..nf {
            let mut dma_end = 0.0f64;
            let mut compute_end = 0.0f64;
            let mut compute_end_prev = 0.0f64; // two records back
            let mut dma_busy: Vec<(f64, f64)> = Vec::new();
            let mut compute_busy: Vec<(f64, f64)> = Vec::new();
            for r in costs.iter().filter(|r| r.fpga == f) {
                let d = self.config.dma.wire_time(r.bytes_in);
                let c = r.cycles as f64 / clock;
                let dma_start = dma_end.max(compute_end_prev);
                dma_end = dma_start + d;
                let compute_start = dma_end.max(compute_end);
                compute_end_prev = compute_end;
                compute_end = compute_start + c;
                dma_busy.push((dma_start, dma_end));
                compute_busy.push((compute_start, compute_end));
                if self.config.record_timeline {
                    report.timeline.push(BoardSegment {
                        entry: r.entry,
                        fpga: f,
                        dma_start,
                        dma_end,
                        compute_start,
                        compute_end,
                        backoff_seconds: r.backoff_cycles as f64 / clock,
                        retries: r.retries,
                        degraded: r.degraded,
                    });
                }
            }
            if compute_end > worst_span {
                worst_span = compute_end;
                report.overlap_seconds = busy_intersection(&dma_busy, &compute_busy);
                report.overlap_occupancy = report.overlap_seconds / compute_end;
            }
        }
        if self.config.record_timeline {
            // Per-FPGA folds interleave; hand the flight recorder
            // dispatch order.
            report.timeline.sort_by_key(|a| (a.entry, a.fpga));
        }
        report.hit_count = total_hits;
        report.bytes_out = total_hits * std::mem::size_of::<(u32, u32)>() as u64;
        report.wire_in_seconds = self.config.dma.wire_time(report.bytes_in);
        report.wire_out_seconds = self.config.dma.wire_time(report.bytes_out);
        report.sync_seconds = self.config.sync_per_entry * n_entries as f64 * (nf as f64 - 1.0);
        report.setup_seconds =
            self.config.dma.bitstream_load + self.config.dma.dispatch_latency * n_entries as f64;
        report.accelerated_seconds =
            worst_span + report.wire_out_seconds + report.sync_seconds + report.setup_seconds;
        report
    }
}

/// Total time two sets of busy intervals are active simultaneously.
/// Both sets are ascending and internally disjoint (each engine is
/// serial), so a two-pointer sweep suffices.
fn busy_intersection(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_score::blosum62;
    use psc_seqio::alphabet::encode_protein;

    fn windows(words: &[&[u8]]) -> Vec<u8> {
        let mut v = Vec::new();
        for w in words {
            v.extend_from_slice(&encode_protein(w));
        }
        v
    }

    fn test_config(fpgas: usize) -> BoardConfig {
        let mut op = OperatorConfig::new(8);
        op.window_len = 6;
        op.threshold = 20;
        op.slot_size = 4;
        BoardConfig::new(op, fpgas)
    }

    fn entries() -> Vec<Entry> {
        let e1 = Entry {
            il0: windows(&[b"MKVLAW", b"PPPPPP", b"MKVLAV", b"GGGGGG", b"MKVLAW"]),
            il1: windows(&[b"MKVLAW", b"GGGGGG", b"MKVLAW"]),
        };
        let e2 = Entry {
            il0: windows(&[b"RNDCQE", b"RNDCQE"]),
            il1: windows(&[b"RNDCQE"]),
        };
        vec![e1, e2]
    }

    #[test]
    fn one_and_two_fpgas_find_same_hits() {
        let m = blosum62();
        let b1 = RascBoard::new(test_config(1), m).unwrap();
        let b2 = RascBoard::new(test_config(2), m).unwrap();
        let (h1, _) = b1.run_workload(&entries()).unwrap();
        let (h2, _) = b2.run_workload(&entries()).unwrap();
        for (a, b) in h1.iter().zip(&h2) {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_by_key(|h| (h.i0, h.i1));
            b.sort_by_key(|h| (h.i0, h.i1));
            assert_eq!(a, b);
        }
        assert!(!h1[0].is_empty());
        assert!(!h1[1].is_empty());
    }

    #[test]
    fn two_fpgas_split_the_cycles() {
        let m = blosum62();
        let (_, r1) = RascBoard::new(test_config(1), m)
            .unwrap()
            .run_workload(&entries())
            .unwrap();
        let (_, r2) = RascBoard::new(test_config(2), m)
            .unwrap()
            .run_workload(&entries())
            .unwrap();
        assert_eq!(r1.fpga_cycles.len(), 1);
        assert_eq!(r2.fpga_cycles.len(), 2);
        let worst2 = *r2.fpga_cycles.iter().max().unwrap();
        assert!(
            worst2 < r1.fpga_cycles[0],
            "two FPGAs should each do less hardware work"
        );
    }

    #[test]
    fn multithreaded_stream_matches_sequential() {
        let m = blosum62();
        let board = RascBoard::new(test_config(2), m).unwrap();
        // A workload big enough that every worker hands over full
        // result chunks and a partial last one.
        let work: Vec<Entry> = (0..5 * RESULT_CHUNK + 7)
            .map(|i| {
                let w0: Vec<Vec<u8>> = (0..(i % 7 + 1))
                    .map(|j| (0..6).map(|r| ((r + j + i) % 20) as u8).collect())
                    .collect();
                let w1: Vec<Vec<u8>> = (0..(i % 5 + 1))
                    .map(|j| (0..6u8).map(|r| (r * 2 + j as u8) % 20).collect())
                    .collect();
                Entry {
                    il0: w0.concat(),
                    il1: w1.concat(),
                }
            })
            .collect();
        let (seq_hits, seq_rep) = board.run_workload(&work).unwrap();
        let mut par_hits: Vec<Vec<Hit>> = vec![Vec::new(); work.len()];
        let par_rep = board
            .run_stream(work.iter().cloned(), 4, |idx, h| {
                par_hits[idx as usize] = h;
            })
            .unwrap();
        assert_eq!(seq_hits, par_hits);
        assert_eq!(seq_rep.fpga_cycles, par_rep.fpga_cycles);
        assert_eq!(seq_rep.fifo_peak, par_rep.fifo_peak);
        assert_eq!(seq_rep.bytes_in, par_rep.bytes_in);
        assert_eq!(seq_rep.bytes_out, par_rep.bytes_out);
        assert_eq!(seq_rep.hit_count, par_rep.hit_count);
        assert_eq!(seq_rep.faults, par_rep.faults);
        assert!((seq_rep.accelerated_seconds - par_rep.accelerated_seconds).abs() < 1e-12);
        // The timeline fold sees the same record order either way, so
        // the double-buffer numbers are bit-identical, not just close.
        assert_eq!(seq_rep.overlap_seconds, par_rep.overlap_seconds);
        assert_eq!(seq_rep.overlap_occupancy, par_rep.overlap_occupancy);
    }

    #[test]
    fn double_buffer_overlaps_dma_with_compute() {
        let m = blosum62();
        // Many same-shaped entries: in steady state the DMA-in of entry
        // k+1 hides entirely under compute of entry k.
        let work: Vec<Entry> = (0..30)
            .map(|i| Entry {
                il0: (0..20 * 6u32).map(|r| ((r + i) % 20) as u8).collect(),
                il1: (0..16 * 6u32).map(|r| ((r * 3 + i) % 20) as u8).collect(),
            })
            .collect();
        let (_, r) = RascBoard::new(test_config(1), m)
            .unwrap()
            .run_workload(&work)
            .unwrap();
        assert!(r.overlap_seconds > 0.0, "{r:?}");
        assert!(
            r.overlap_occupancy > 0.0 && r.overlap_occupancy <= 1.0,
            "{r:?}"
        );
        // The overlapped span can never beat pure compute time or pure
        // wire time, and never exceeds their sum.
        let clock = test_config(1).operator.clock_hz as f64;
        let compute = r.fpga_cycles[0] as f64 / clock;
        let span = r.accelerated_seconds - r.wire_out_seconds - r.sync_seconds - r.setup_seconds;
        assert!(span >= compute.max(r.wire_in_seconds) - 1e-15, "{r:?}");
        assert!(span <= compute + r.wire_in_seconds + 1e-15, "{r:?}");
        // A single entry has nothing to overlap with.
        let (_, one) = RascBoard::new(test_config(1), m)
            .unwrap()
            .run_workload(&work[..1])
            .unwrap();
        assert_eq!(one.overlap_seconds, 0.0);
        assert_eq!(one.overlap_occupancy, 0.0);
    }

    #[test]
    fn timeline_records_match_the_fold_and_stay_thread_invariant() {
        let m = blosum62();
        let mut cfg = test_config(2);
        cfg.record_timeline = true;
        let board = RascBoard::new(cfg, m).unwrap();
        let work: Vec<Entry> = (0..12)
            .map(|i| Entry {
                il0: (0..8 * 6u32).map(|r| ((r + i) % 20) as u8).collect(),
                il1: (0..5 * 6u32).map(|r| ((r * 3 + i) % 20) as u8).collect(),
            })
            .collect();
        let (_, seq) = board.run_workload(&work).unwrap();
        let par = board
            .run_stream(work.iter().cloned(), 4, |_, _| {})
            .unwrap();
        assert_eq!(seq.timeline, par.timeline);
        assert_eq!(seq.timeline.len(), work.len() * 2); // two FPGAs
                                                        // Dispatch order, per-lane monotonic, DMA precedes compute.
        let mut last_end = [0.0f64; 2];
        for (i, s) in seq.timeline.iter().enumerate() {
            assert_eq!(s.entry, (i / 2) as u64);
            assert_eq!(s.fpga, i % 2);
            assert!(s.dma_end >= s.dma_start, "{s:?}");
            assert!(s.compute_start >= s.dma_end, "{s:?}");
            assert!(s.compute_end >= s.compute_start, "{s:?}");
            assert!(s.compute_end >= last_end[s.fpga], "{s:?}");
            last_end[s.fpga] = s.compute_end;
            assert_eq!(s.retries, 0);
            assert!(!s.degraded);
            assert_eq!(s.backoff_seconds, 0.0);
        }
        // The slowest lane's last compute_end is the fold's worst span.
        let span =
            seq.accelerated_seconds - seq.wire_out_seconds - seq.sync_seconds - seq.setup_seconds;
        let worst = seq
            .timeline
            .iter()
            .map(|s| s.compute_end)
            .fold(0.0f64, f64::max);
        assert!((span - worst).abs() < 1e-15, "{span} vs {worst}");
        // Off by default: no segments on a plain config.
        let plain = RascBoard::new(test_config(2), m).unwrap();
        let (_, r) = plain.run_workload(&work).unwrap();
        assert!(r.timeline.is_empty());
    }

    #[test]
    fn timeline_exposes_recovery_activity() {
        use crate::fault::FaultPlan;
        let m = blosum62();
        let mut cfg = test_config(1);
        cfg.record_timeline = true;
        // Entry 1 faults twice then succeeds; entry 0 is clean.
        cfg.fault_plan = Some(FaultPlan::parse("1:pe-flip:2").unwrap());
        let board = RascBoard::new(cfg, m).unwrap();
        let (_, r) = board.run_workload(&entries()).unwrap();
        assert_eq!(r.timeline.len(), 2);
        assert_eq!(r.timeline[0].retries, 0);
        assert_eq!(r.timeline[1].retries, 2);
        assert!(r.timeline[1].backoff_seconds > 0.0);
        assert!(!r.timeline[1].degraded);
        // The segment's backoff matches the summary's cycle account.
        let clock = test_config(1).operator.clock_hz as f64;
        assert!(
            (r.timeline[1].backoff_seconds - r.faults.backoff_cycles as f64 / clock).abs() < 1e-18
        );
    }

    #[test]
    fn sync_overhead_only_with_two_fpgas() {
        let m = blosum62();
        let (_, r1) = RascBoard::new(test_config(1), m)
            .unwrap()
            .run_workload(&entries())
            .unwrap();
        let (_, r2) = RascBoard::new(test_config(2), m)
            .unwrap()
            .run_workload(&entries())
            .unwrap();
        assert_eq!(r1.sync_seconds, 0.0);
        assert!(r2.sync_seconds > 0.0);
    }

    #[test]
    fn oversized_operator_rejected() {
        let m = blosum62();
        let cfg = BoardConfig::new(OperatorConfig::new(4000), 1);
        assert!(RascBoard::new(cfg, m).is_err());
    }

    #[test]
    #[should_panic]
    fn three_fpgas_rejected() {
        let m = blosum62();
        let _ = RascBoard::new(test_config(3), m);
    }

    #[test]
    fn report_accounts_bytes() {
        let m = blosum62();
        let (hits, r) = RascBoard::new(test_config(1), m)
            .unwrap()
            .run_workload(&entries())
            .unwrap();
        let total_hits: usize = hits.iter().map(Vec::len).sum();
        assert_eq!(r.bytes_out, (total_hits * 8) as u64);
        assert_eq!(r.hit_count, total_hits as u64);
        // Input: all IL0 + IL1 bytes of both entries (single FPGA).
        let expect: u64 = entries()
            .iter()
            .map(|e| (e.il0.len() + e.il1.len()) as u64)
            .sum();
        assert_eq!(r.bytes_in, expect);
        assert!(r.accelerated_seconds > 0.0);
        assert_eq!(r.entries, 2);
        assert!(r.utilization(8) > 0.0);
        // A fault-free run reports no fault activity.
        assert!(!r.faults.any());
        // The wire-time split follows the byte counts through the DMA
        // model, and hits were reported so the FIFOs saw occupancy.
        let cfg = test_config(1);
        assert!((r.wire_in_seconds - cfg.dma.wire_time(r.bytes_in)).abs() < 1e-15);
        assert!((r.wire_out_seconds - cfg.dma.wire_time(r.bytes_out)).abs() < 1e-15);
        assert_eq!(r.fifo_peak.len(), 1);
        assert!(r.fifo_peak[0] > 0);
    }

    #[test]
    fn utilization_is_zero_on_empty_report() {
        let r = BoardReport::default();
        assert_eq!(r.utilization(192), 0.0);
        let r = BoardReport {
            fpga_cycles: vec![0, 0],
            busy_pe_cycles: vec![0, 0],
            ..BoardReport::default()
        };
        assert_eq!(r.utilization(192), 0.0);
    }

    #[test]
    fn empty_workload() {
        let m = blosum62();
        let (hits, r) = RascBoard::new(test_config(2), m)
            .unwrap()
            .run_workload(&[])
            .unwrap();
        assert!(hits.is_empty());
        assert_eq!(r.bytes_in, 0);
        assert_eq!(r.sync_seconds, 0.0);
        assert_eq!(r.entries, 0);
    }
}
