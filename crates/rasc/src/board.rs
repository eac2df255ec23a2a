//! The RASC-100 board: one or two FPGAs, NUMAlink, host dispatch.
//!
//! Mirrors the paper's usage: the single-FPGA runs of Table 2/4 use one
//! operator; the dual-FPGA runs of Table 3 split the IL0 side of every
//! entry across two operators driven by independent host processes (the
//! paper's pthread version splits the protein bank the same way), with
//! per-dispatch synchronisation cost and a shared result link — the two
//! effects that cap the measured dual-FPGA speedup at 1.8× instead of 2×.
//!
//! ## Two phases
//!
//! *Phase A* (`precompute`, parallel): every entry is scored once on
//! `host_threads` simulation workers. Its hits go to the caller's sink
//! and each shard's cost — cycles, stalls, busy PE·cycles, bytes — is
//! kept.
//!
//! *Phase B* (sequential, in entry order): each entry's shard costs are
//! committed to the board, whose double-buffered DMA/compute timeline
//! advances one entry at a time. Timing is *simulated* (cycles at the
//! configured clock plus the DMA model), so the number of host threads
//! only affects how fast the simulation itself runs, never the reported
//! numbers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

use psc_score::SubstitutionMatrix;

use crate::config::OperatorConfig;
use crate::dma::DmaModel;
use crate::functional::FunctionalOperator;
use crate::operator::{pe_utilization, Hit};
use crate::resource::{ResourceError, ResourceModel};

/// Entry results a simulation worker hands to the draining thread at
/// once. One channel crossing per entry wakes that thread thousands of
/// times a run, which on `board_sim` cost as much as the scoring the
/// second worker saved (EXPERIMENTS.md, "Measured causes and
/// negatives").
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

/// Timing report of a workload run. Per-FPGA vectors are indexed by
/// FPGA.
#[derive(Clone, Debug, Default)]
pub struct BoardReport {
    /// Hardware cycles per FPGA.
    pub fpga_cycles: Vec<u64>,
    /// Stall cycles per FPGA (result-path backpressure).
    pub stall_cycles: Vec<u64>,
    /// Busy PE·cycles per FPGA (utilization reporting).
    pub busy_pe_cycles: Vec<u64>,
    /// Result-FIFO high-water mark per FPGA (max over entries).
    pub fifo_peak: Vec<u64>,
    /// Bytes streamed to / from the board.
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Pure NUMAlink wire time of the input / output byte streams.
    pub wire_in_seconds: f64,
    pub wire_out_seconds: f64,
    /// Entries in the stream.
    pub entries: u64,
    /// Hits delivered over the result link.
    pub hit_count: u64,
    /// Simulated wall time of the accelerated section: the slowest
    /// FPGA's double-buffered DMA/compute timeline (input streaming of
    /// entry *k+1* overlaps compute of entry *k*), plus the shared
    /// result link, plus host synchronisation and setup.
    pub accelerated_seconds: f64,
    /// Seconds of that FPGA's timeline during which its DMA engine and
    /// its PE array were busy *simultaneously* (the double-buffer
    /// payoff).
    pub overlap_seconds: f64,
    /// `overlap_seconds` as a fraction of that FPGA's total timeline
    /// (0 when the board did no work).
    pub overlap_occupancy: f64,
    /// Of which: host synchronisation overhead.
    pub sync_seconds: f64,
    /// Of which: the one-time bitstream load and the dispatch handshakes.
    pub setup_seconds: f64,
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
/// when its input DMA ran and when its compute ran.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoardSegment {
    pub entry: u64,
    /// FPGA index, as in [`BoardReport::fpga_cycles`].
    pub fpga: usize,
    /// Input-stream window on the DMA engine, seconds.
    pub dma_start: f64,
    pub dma_end: f64,
    /// PE-array window, seconds.
    pub compute_start: f64,
    pub compute_end: f64,
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

/// `host_threads` workers, each with its own `init()` state, claim
/// `(index, entry)` in index order straight from the shared source —
/// gathering an entry (the iterator's `next`) is short next to scoring
/// it, so the lock is rarely contended and no feeder thread or entry
/// queue is needed — run `process` on it, and hand the results to
/// `drain` on the calling thread, in bursts of up to `RESULT_CHUNK` and
/// possibly out of index order. One thread runs inline with no channel
/// at all.
fn stream_entries<I, S, T>(
    entries: I,
    host_threads: usize,
    init: impl Fn() -> S + Sync,
    process: impl Fn(&mut S, u64, &Entry) -> T + Sync,
    mut drain: impl FnMut(T),
) where
    I: Iterator<Item = Entry> + Send,
    T: Send,
{
    let source = Mutex::new((0u64, entries));
    let stop = AtomicBool::new(false);
    let claim = || {
        let mut src = source
            .lock()
            .expect("a worker panicked inside the entry iterator");
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        let entry = src.1.next()?;
        src.0 += 1;
        Some((src.0 - 1, entry))
    };
    let work = |emit: &mut dyn FnMut(T) -> bool| {
        let mut state = init();
        while let Some((idx, entry)) = claim() {
            // `emit` reports false once nobody is receiving any more.
            if !emit(process(&mut state, idx, &entry)) {
                stop.store(true, Ordering::Relaxed);
            }
        }
    };
    if host_threads <= 1 {
        work(&mut |t| {
            drain(t);
            true
        });
        return;
    }
    std::thread::scope(|s| {
        // Created in here so a panicking `drain` drops the receiver
        // before the scope joins: blocked senders wake up and stop.
        let (tx, rx) = sync_channel::<Vec<T>>(host_threads * 2);
        for _ in 0..host_threads {
            let (tx, work) = (tx.clone(), &work);
            s.spawn(move || {
                let mut chunk = Vec::new();
                work(&mut |t| {
                    chunk.push(t);
                    chunk.len() < RESULT_CHUNK || tx.send(std::mem::take(&mut chunk)).is_ok()
                });
                // The receiver only goes away with the run.
                let _ = tx.send(chunk);
            });
        }
        drop(tx);
        rx.iter().flatten().for_each(&mut drain);
    });
}

/// FPGAs a RASC-100 carries.
const MAX_FPGAS: usize = 2;

/// Cost of one shard — everything Phase B needs without touching
/// sequence data again.
#[derive(Clone, Copy, Debug, Default)]
struct ShardBase {
    fpga: usize,
    cycles: u64,
    stalls: u64,
    busy: u64,
    fifo_peak: u64,
    /// Bytes the dispatch streams (shard + IL1).
    bytes: u64,
    hits: u64,
}

/// One entry's Phase A result: the cost of each non-empty shard. Held
/// inline: Phase A keeps one per entry until Phase B ends, and a small
/// heap block each, allocated on the workers, fragments their arenas.
#[derive(Clone, Debug)]
struct EntryBase {
    entry: u64,
    len: usize,
    shards: [ShardBase; MAX_FPGAS],
}

impl EntryBase {
    fn shards(&self) -> &[ShardBase] {
        &self.shards[..self.len]
    }
}

/// Phase A over the whole stream: hands each entry's hits to `sink`
/// (FPGA 0's shard first, `i0` rebased to the full entry) and returns
/// the per-shard costs in entry order.
fn precompute<I>(
    config: &BoardConfig,
    matrix: &SubstitutionMatrix,
    entries: I,
    host_threads: usize,
    sink: &mut impl FnMut(u64, Vec<Hit>),
) -> Vec<EntryBase>
where
    I: Iterator<Item = Entry> + Send,
{
    let l = config.operator.window_len;
    let nf = config.fpga_count;
    let score = |ops: &mut Vec<FunctionalOperator>, idx: u64, entry: &Entry| {
        let k0 = entry.il0.len() / l;
        // Contiguous IL0 shards, one per FPGA.
        let per = k0.div_ceil(nf);
        let mut base = EntryBase {
            entry: idx,
            len: 0,
            shards: [ShardBase::default(); MAX_FPGAS],
        };
        let mut hits = Vec::new();
        for (f, op) in ops.iter_mut().enumerate() {
            let (lo, hi) = ((f * per).min(k0), ((f + 1) * per).min(k0));
            if lo >= hi {
                continue;
            }
            let shard = &entry.il0[lo * l..hi * l];
            let r = op.run_entry(shard, &entry.il1);
            base.shards[base.len] = ShardBase {
                fpga: f,
                cycles: r.cycles,
                stalls: r.stall_cycles,
                busy: r.busy_pe_cycles,
                fifo_peak: r.fifo_peak,
                bytes: (shard.len() + entry.il1.len()) as u64,
                hits: r.hits.len() as u64,
            };
            base.len += 1;
            hits.extend(r.hits.into_iter().map(|mut h| {
                h.i0 += lo as u32;
                h
            }));
        }
        (base, hits)
    };
    let mut bases = Vec::new();
    stream_entries(
        entries,
        host_threads,
        || {
            (0..nf)
                .map(|_| {
                    FunctionalOperator::new(config.operator.clone(), matrix)
                        .expect("validated at construction")
                })
                .collect()
        },
        score,
        |(base, hits): (EntryBase, Vec<Hit>)| {
            sink(base.entry, hits);
            bases.push(base);
        },
    );
    // Workers interleave; Phase B needs index order.
    bases.sort_unstable_by_key(|b| b.entry);
    bases
}

/// One FPGA of a board in Phase B: its counters and its double-buffered
/// timeline. The DMA engine streams entry *k+1* into the idle half of
/// the entry buffer while the PEs chew on entry *k*: a DMA may start
/// once the engine is free *and* the half it fills — last filled two
/// records ago — has been consumed; compute follows its own DMA and the
/// previous compute.
#[derive(Clone, Copy, Debug, Default)]
struct Lane {
    cycles: u64,
    stalls: u64,
    busy: u64,
    peak: u64,
    dma_end: f64,
    compute_start: f64,
    compute_end: f64,
    /// `compute_end` one record further back.
    compute_end_prev: f64,
    /// Seconds the DMA engine and the PE array were busy at once.
    overlap: f64,
}

impl Lane {
    /// Append one record of `dma` wire seconds and `compute` seconds;
    /// returns its `(dma_start, compute_start)`.
    fn advance(&mut self, dma: f64, compute: f64) -> (f64, f64) {
        let dma_start = self.dma_end.max(self.compute_end_prev);
        let dma_end = dma_start + dma;
        // The only compute window this DMA can overlap is the previous
        // record's: the one before ended by `dma_start`, and this
        // record's own starts after `dma_end`.
        let lo = dma_start.max(self.compute_start);
        let hi = dma_end.min(self.compute_end);
        if hi > lo {
            self.overlap += hi - lo;
        }
        let compute_start = dma_end.max(self.compute_end);
        self.dma_end = dma_end;
        self.compute_start = compute_start;
        self.compute_end_prev = self.compute_end;
        self.compute_end = compute_start + compute;
        (dma_start, compute_start)
    }
}

/// The board in Phase B: its FPGA lanes, advanced one dispatched entry
/// at a time, and what dispatching to it cost the host.
#[derive(Clone, Debug)]
struct Board {
    lanes: Vec<Lane>,
    /// Entries dispatched; each pays the host synchronisation and a
    /// dispatch handshake.
    dispatches: u64,
    bytes_in: u64,
    hits: u64,
}

impl Board {
    fn new(fpga_count: usize) -> Board {
        Board {
            lanes: vec![Lane::default(); fpga_count],
            dispatches: 0,
            bytes_in: 0,
            hits: 0,
        }
    }

    /// Charge the dispatch of entry `base` to the board.
    fn commit(
        &mut self,
        config: &BoardConfig,
        base: &EntryBase,
        mut timeline: Option<&mut Vec<BoardSegment>>,
    ) {
        let clock = config.operator.clock_hz as f64;
        self.dispatches += 1;
        for s in base.shards() {
            self.bytes_in += s.bytes;
            self.hits += s.hits;
            let lane = &mut self.lanes[s.fpga];
            lane.cycles += s.cycles;
            lane.stalls += s.stalls;
            lane.busy += s.busy;
            lane.peak = lane.peak.max(s.fifo_peak);
            let (dma_start, compute_start) =
                lane.advance(config.dma.wire_time(s.bytes), s.cycles as f64 / clock);
            if let Some(segments) = timeline.as_mut() {
                segments.push(BoardSegment {
                    entry: base.entry,
                    fpga: s.fpga,
                    dma_start,
                    dma_end: lane.dma_end,
                    compute_start,
                    compute_end: lane.compute_end,
                });
            }
        }
    }

    /// The report of the run: per-FPGA counters, totals, and the timing
    /// of the slowest FPGA.
    fn report(
        self,
        config: &BoardConfig,
        matrix: &SubstitutionMatrix,
        entries: u64,
        timeline: Vec<BoardSegment>,
    ) -> BoardReport {
        let mut r = BoardReport {
            entries,
            host_kernel: FunctionalOperator::host_kernel(&config.operator, matrix).name(),
            timeline,
            bytes_in: self.bytes_in,
            hit_count: self.hits,
            ..BoardReport::default()
        };
        let (mut span, mut overlap) = (0.0f64, 0.0f64);
        for l in &self.lanes {
            r.fpga_cycles.push(l.cycles);
            r.stall_cycles.push(l.stalls);
            r.busy_pe_cycles.push(l.busy);
            r.fifo_peak.push(l.peak);
            if l.compute_end > span {
                (span, overlap) = (l.compute_end, l.overlap);
            }
        }
        r.bytes_out = r.hit_count * std::mem::size_of::<(u32, u32)>() as u64;
        r.wire_in_seconds = config.dma.wire_time(r.bytes_in);
        r.wire_out_seconds = config.dma.wire_time(r.bytes_out);
        if span > 0.0 {
            r.overlap_seconds = overlap;
            r.overlap_occupancy = overlap / span;
        }
        let dispatches = self.dispatches as f64;
        r.sync_seconds = config.sync_per_entry * dispatches * (config.fpga_count as f64 - 1.0);
        r.setup_seconds = config.dma.bitstream_load + config.dma.dispatch_latency * dispatches;
        r.accelerated_seconds = span + r.wire_out_seconds + r.sync_seconds + r.setup_seconds;
        r
    }
}

/// One simulated RASC-100 board of one or two FPGAs.
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
            (1..=MAX_FPGAS).contains(&config.fpga_count),
            "RASC-100 has one or two FPGAs"
        );
        config.operator.validate().expect("invalid operator config");
        ResourceModel::check(&config.operator)?;
        Ok(RascBoard {
            config,
            matrix: matrix.clone(),
        })
    }

    /// Run a streamed workload with `host_threads` simulation workers.
    ///
    /// `sink` receives `(entry_index, hits)` — possibly out of entry
    /// order, and in bursts. The report is `host_threads`-invariant.
    pub fn run_stream<I>(
        &self,
        entries: I,
        host_threads: usize,
        mut sink: impl FnMut(u64, Vec<Hit>),
    ) -> BoardReport
    where
        I: Iterator<Item = Entry> + Send,
    {
        let cfg = &self.config;
        let bases = precompute(cfg, &self.matrix, entries, host_threads, &mut sink);
        let mut board = Board::new(cfg.fpga_count);
        let mut timeline = Vec::new();
        for base in &bases {
            board.commit(cfg, base, cfg.record_timeline.then_some(&mut timeline));
        }
        board.report(cfg, &self.matrix, bases.len() as u64, timeline)
    }

    /// Run a workload held in memory; per-entry hits in entry order.
    pub fn run_workload(&self, entries: &[Entry]) -> (Vec<Vec<Hit>>, BoardReport) {
        let mut hits: Vec<Vec<Hit>> = vec![Vec::new(); entries.len()];
        let report = self.run_stream(entries.iter().cloned(), 1, |idx, h| {
            hits[idx as usize] = h;
        });
        (hits, report)
    }
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

    fn board(cfg: BoardConfig) -> RascBoard {
        RascBoard::new(cfg, blosum62()).unwrap()
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
        let (h1, _) = board(test_config(1)).run_workload(&entries());
        let (h2, _) = board(test_config(2)).run_workload(&entries());
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
        let (_, r1) = board(test_config(1)).run_workload(&entries());
        let (_, r2) = board(test_config(2)).run_workload(&entries());
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
        let board = board(test_config(2));
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
        let (seq_hits, seq_rep) = board.run_workload(&work);
        let mut par_hits: Vec<Vec<Hit>> = vec![Vec::new(); work.len()];
        let par_rep = board.run_stream(work.iter().cloned(), 4, |idx, h| {
            par_hits[idx as usize] = h;
        });
        assert_eq!(seq_hits, par_hits);
        assert_eq!(seq_rep.fpga_cycles, par_rep.fpga_cycles);
        assert_eq!(seq_rep.fifo_peak, par_rep.fifo_peak);
        assert_eq!(seq_rep.bytes_in, par_rep.bytes_in);
        assert_eq!(seq_rep.bytes_out, par_rep.bytes_out);
        assert_eq!(seq_rep.hit_count, par_rep.hit_count);
        assert!((seq_rep.accelerated_seconds - par_rep.accelerated_seconds).abs() < 1e-12);
        // The timeline fold sees the same record order either way, so
        // the double-buffer numbers are bit-identical, not just close.
        assert_eq!(seq_rep.overlap_seconds, par_rep.overlap_seconds);
        assert_eq!(seq_rep.overlap_occupancy, par_rep.overlap_occupancy);
    }

    #[test]
    fn double_buffer_overlaps_dma_with_compute() {
        // Many same-shaped entries: in steady state the DMA-in of entry
        // k+1 hides entirely under compute of entry k.
        let work: Vec<Entry> = (0..30)
            .map(|i| Entry {
                il0: (0..20 * 6u32).map(|r| ((r + i) % 20) as u8).collect(),
                il1: (0..16 * 6u32).map(|r| ((r * 3 + i) % 20) as u8).collect(),
            })
            .collect();
        let cfg = test_config(1);
        let clock = cfg.operator.clock_hz as f64;
        let (_, r) = board(cfg.clone()).run_workload(&work);
        assert!(r.overlap_seconds > 0.0, "{r:?}");
        assert!(
            r.overlap_occupancy > 0.0 && r.overlap_occupancy <= 1.0,
            "{r:?}"
        );
        // Every dispatch handshake is charged, not just the bitstream.
        assert!(r.setup_seconds > cfg.dma.bitstream_load, "{r:?}");
        // The overlapped span beats neither the pure compute time nor
        // the pure wire time, and never exceeds their sum.
        let compute = r.fpga_cycles[0] as f64 / clock;
        let span = r.accelerated_seconds - r.wire_out_seconds - r.sync_seconds - r.setup_seconds;
        assert!(span >= compute - 1e-15, "{r:?}");
        assert!(span >= r.wire_in_seconds - 1e-15, "{r:?}");
        assert!(span <= compute + r.wire_in_seconds + 1e-15, "{r:?}");
        // A single entry has nothing to overlap with.
        let (_, one) = board(cfg).run_workload(&work[..1]);
        assert_eq!(one.overlap_seconds, 0.0);
        assert_eq!(one.overlap_occupancy, 0.0);
    }

    #[test]
    fn timeline_records_match_the_fold_and_stay_thread_invariant() {
        let mut cfg = test_config(2);
        cfg.record_timeline = true;
        let sim = board(cfg);
        let work: Vec<Entry> = (0..12)
            .map(|i| Entry {
                il0: (0..8 * 6u32).map(|r| ((r + i) % 20) as u8).collect(),
                il1: (0..5 * 6u32).map(|r| ((r * 3 + i) % 20) as u8).collect(),
            })
            .collect();
        let (_, seq) = sim.run_workload(&work);
        let par = sim.run_stream(work.iter().cloned(), 4, |_, _| {});
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
        let (_, r) = board(test_config(2)).run_workload(&work);
        assert!(r.timeline.is_empty());
    }

    #[test]
    fn sync_overhead_only_with_two_fpgas() {
        let (_, r1) = board(test_config(1)).run_workload(&entries());
        let (_, r2) = board(test_config(2)).run_workload(&entries());
        assert_eq!(r1.sync_seconds, 0.0);
        assert!(r2.sync_seconds > 0.0);
    }

    #[test]
    fn oversized_operator_rejected() {
        let cfg = BoardConfig::new(OperatorConfig::new(4000), 1);
        assert!(RascBoard::new(cfg, blosum62()).is_err());
    }

    #[test]
    #[should_panic]
    fn three_fpgas_rejected() {
        let _ = board(test_config(3));
    }

    #[test]
    fn report_accounts_bytes() {
        let (hits, r) = board(test_config(1)).run_workload(&entries());
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
        let (hits, r) = board(test_config(2)).run_workload(&[]);
        assert!(hits.is_empty());
        assert_eq!(r.bytes_in, 0);
        assert_eq!(r.sync_seconds, 0.0);
        assert_eq!(r.entries, 0);
    }
}
