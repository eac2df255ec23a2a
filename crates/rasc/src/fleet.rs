//! A fleet of simulated RASC-100 boards behind a work-stealing,
//! fault-aware dispatcher.
//!
//! The paper models one blade; Nguyen & Lavenier's fine-grained
//! parallelization report studies the next axis — spreading seed-based
//! comparison across many accelerator nodes. This module generalizes
//! [`RascBoard`](crate::RascBoard) to N identical boards (each with the
//! configured FPGA count) fed from the step-2 entry stream through
//! per-board bounded queues, with steal-from-richest pulls when a board
//! runs dry and quarantine for boards that keep exhausting the retry
//! budget.
//!
//! ## Two-phase execution and the determinism argument
//!
//! Phase A (*functional*, parallel): every entry's fault-free per-shard
//! result — hits, cycles, stalls, byte counts, watchdog budget — is
//! computed once, exactly as a fault-free [`RascBoard`] run would, using
//! `host_threads` simulation workers, and merged by entry index. The hit
//! sink is fed from this phase only, so the emitted hits are the
//! fault-free hits for every entry **by construction**, at any board
//! count, thread count, steal policy, or fault plan. (This is the same
//! invariant the single board guarantees the long way round: recovery is
//! lossless, so recovered output equals fault-free output.)
//!
//! Phase B (*dispatch*, sequential): a discrete-event simulation replays
//! the fleet schedule over the Phase A base costs — per-board clocks,
//! bounded queues, steals, per-board fault streams (the injector is
//! salted with the board id, see [`FaultInjector::for_board`]), retries,
//! backoff, and quarantine. The loop is single-threaded over
//! index-sorted inputs, so the timing report is bit-identical for every
//! `host_threads`.
//!
//! ## Quarantine state machine
//!
//! A board that exhausts the retry budget on an entry takes a *strike*;
//! the entry is re-dispatched to the best other board (deterministic
//! order: pending re-dispatches are kept sorted by entry index and drain
//! before fresh stream entries). A board reaching
//! [`FleetConfig::quarantine_after`] strikes is *drained* — its queued
//! entries go back to the re-dispatch pool in index order — and
//! *quarantined*: it takes no further work and is reported degraded. The
//! last active board is never quarantined. An entry that fails on two
//! distinct boards (or has no viable board left) is recomputed on the
//! host software path, which is lossless, so none of this ever changes
//! output bytes — only the simulated clock.

use std::collections::VecDeque;

use psc_score::SubstitutionMatrix;

use crate::board::{
    stream_entries, BoardConfig, BoardReport, BoardSegment, Entry, ADR_HANDSHAKE_CYCLES,
};
use crate::fault::{BoardFault, FaultInjector, FaultKind, FaultSummary};
use crate::functional::FunctionalOperator;
use crate::operator::Hit;
use crate::resource::{ResourceError, ResourceModel};

/// Hard ceiling on fleet size (the per-entry board bitmask is a `u64`).
pub const MAX_BOARDS: usize = 64;

/// Board counts the modeled cluster-speedup ladder replays
/// (`fleet.modeled_b{N}`), in the style of `step3.modeled_p{N}`.
pub const MODELED_BOARD_LADDER: [usize; 5] = [1, 2, 4, 8, 16];

/// Victim selection when a board's queue runs dry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StealPolicy {
    /// Steal from the board with the longest queue (ties to
    /// the lowest id), taking from the queue tail.
    #[default]
    Richest,
    /// Never steal: a dry board retires once the stream is exhausted.
    None,
}

impl StealPolicy {
    pub fn name(&self) -> &'static str {
        match self {
            StealPolicy::Richest => "richest",
            StealPolicy::None => "none",
        }
    }

    pub fn parse(s: &str) -> Result<StealPolicy, String> {
        match s {
            "richest" => Ok(StealPolicy::Richest),
            "none" => Ok(StealPolicy::None),
            other => Err(format!(
                "unknown steal policy {other:?} (expected richest or none)"
            )),
        }
    }
}

/// Bounded per-board entry queue depth (host prefetch window).
const QUEUE_DEPTH: usize = 4;
const _: () = assert!(QUEUE_DEPTH >= 1, "queue depth must be at least 1");

/// Fleet-level configuration; rides next to [`BoardConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of simulated boards. `1` means the fleet dispatcher is
    /// bypassed entirely (the pipeline uses the plain single board).
    pub boards: usize,
    pub steal_policy: StealPolicy,
    /// Strikes (retry-budget exhaustions) before a board is drained and
    /// quarantined.
    pub quarantine_after: u32,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            boards: 1,
            steal_policy: StealPolicy::Richest,
            quarantine_after: 2,
        }
    }
}

/// A steal or quarantine event on the fleet timeline, for the flight
/// recorder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetEvent {
    pub board: usize,
    /// Simulated-clock start on the board's lane, seconds.
    pub at: f64,
    /// Simulated duration charged to the board, seconds.
    pub seconds: f64,
    pub kind: FleetEventKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetEventKind {
    /// The board ran dry and pulled one entry from `victim`'s queue.
    Steal { victim: usize },
    /// The board was quarantined; `drained` queued entries went back to
    /// the re-dispatch pool.
    QuarantineDrain { drained: u64 },
}

/// Timing and health report of a fleet run.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Configured board count.
    pub boards: usize,
    /// Work-steal pulls performed.
    pub steals: u64,
    /// Boards drained and quarantined, in quarantine order.
    pub quarantined: Vec<usize>,
    /// Entries re-dispatched after a board exhausted its retry budget.
    pub redispatched: u64,
    /// Entries completed per board (degraded entries count for nobody).
    pub entries_by_board: Vec<u64>,
    /// Seconds each board spent processing entries (faulted attempts and
    /// backoff included; steal waits and drains excluded).
    pub busy_seconds: Vec<f64>,
    /// Retry-budget exhaustions per board.
    pub strikes: Vec<u32>,
    /// Simulated wall time of the dispatch schedule: the slowest board's
    /// final clock. The modeled speedup ladder is ratios of this.
    pub makespan_seconds: f64,
    /// `(boards, makespan_seconds)` for every ladder point, replaying
    /// the same dispatch schedule at that fleet size. The entry at the
    /// configured board count equals `makespan_seconds` exactly. Empty
    /// when degradation is disabled (a ladder replay could fail).
    pub modeled: Vec<(usize, f64)>,
    /// Fleet-wide aggregate in single-board shape: `fpga_cycles[b*nf+f]`
    /// is board `b`'s FPGA `f`; byte/hit/fault counters are summed;
    /// `accelerated_seconds = bitstream_load + makespan + wire_out`.
    /// The fleet DES models dispatch, not double-buffering, so the
    /// overlap fields are zero.
    pub aggregate: BoardReport,
    /// Per-`(board, entry, fpga)` timeline when
    /// [`BoardConfig::record_timeline`] is set, in dispatch order.
    pub timeline: Vec<(usize, BoardSegment)>,
    /// Steal / quarantine events when the timeline is recorded.
    pub events: Vec<FleetEvent>,
}

impl FleetReport {
    /// Fraction of the makespan board `b` spent processing entries.
    pub fn occupancy(&self, board: usize) -> f64 {
        if self.makespan_seconds <= 0.0 {
            return 0.0;
        }
        self.busy_seconds[board] / self.makespan_seconds
    }

    pub fn occupancies(&self) -> Vec<f64> {
        (0..self.boards).map(|b| self.occupancy(b)).collect()
    }
}

/// Fault-free per-shard cost of one entry — everything Phase B needs to
/// replay any fault plan without touching sequence data again.
#[derive(Clone, Copy, Debug)]
struct ShardBase {
    fpga: usize,
    cycles: u64,
    stalls: u64,
    busy: u64,
    fifo_peak: u64,
    /// Bytes one dispatch streams (shard + IL1); every retry re-streams.
    bytes: u64,
    /// Watchdog budget of this shard (for `FifoStall` cost replay).
    budget: u64,
    hit_count: u64,
}

#[derive(Clone, Debug)]
struct EntryBase {
    entry: u64,
    shards: Vec<ShardBase>,
}

/// What one dispatch of one entry on one board cost, after replaying
/// the board's fault stream over the base result.
#[derive(Clone, Debug, Default)]
struct Replay {
    shards: Vec<ShardReplay>,
    /// Seconds the board is occupied by this dispatch (worst shard's
    /// wire + compute, plus dispatch latency and sync overhead).
    elapsed: f64,
    bytes_in: u64,
    faults: FaultSummary,
    /// Set when a shard exhausted the retry budget: `(fpga, kind,
    /// attempts)`. Later shards are not attempted (the host kills the
    /// dispatch).
    wedge: Option<(usize, FaultKind, u32)>,
    hit_count: u64,
}

#[derive(Clone, Copy, Debug)]
struct ShardReplay {
    fpga: usize,
    cycles: u64,
    stalls: u64,
    busy: u64,
    peak: u64,
    backoff_cycles: u64,
    retries: u32,
    wire: f64,
    compute: f64,
    wedged: bool,
}

/// Phase B per-board scheduler state.
#[derive(Clone, Debug, Default)]
struct BoardState {
    clock: f64,
    queue: VecDeque<usize>,
    strikes: u32,
    quarantined: bool,
    /// Dry and out of steal victims; cleared whenever new work appears.
    retired: bool,
}

/// Raw output of one Phase B simulation.
#[derive(Clone, Debug, Default)]
struct Sim {
    makespan: f64,
    steals: u64,
    quarantined: Vec<usize>,
    redispatched: u64,
    entries_by_board: Vec<u64>,
    busy: Vec<f64>,
    strikes: Vec<u32>,
    faults: FaultSummary,
    /// Per `(board, fpga)`, index `b * fpga_count + f`.
    cycles: Vec<u64>,
    stalls: Vec<u64>,
    busy_pe: Vec<u64>,
    peak: Vec<u64>,
    bytes_in: u64,
    hit_count: u64,
    timeline: Vec<(usize, BoardSegment)>,
    events: Vec<FleetEvent>,
}

/// A fleet of identical simulated RASC-100 boards.
#[derive(Debug)]
pub struct RascFleet {
    config: BoardConfig,
    fleet: FleetConfig,
    matrix: SubstitutionMatrix,
}

impl RascFleet {
    pub fn new(
        config: BoardConfig,
        fleet: FleetConfig,
        matrix: &SubstitutionMatrix,
    ) -> Result<RascFleet, ResourceError> {
        assert!(
            (1..=MAX_BOARDS).contains(&fleet.boards),
            "fleet size must be 1..={MAX_BOARDS}"
        );
        assert!(
            fleet.quarantine_after >= 1,
            "quarantine threshold must be at least 1 strike"
        );
        assert!(
            (1..=2).contains(&config.fpga_count),
            "RASC-100 has one or two FPGAs"
        );
        config.operator.validate().expect("invalid operator config");
        ResourceModel::check(&config.operator)?;
        Ok(RascFleet {
            config,
            fleet,
            matrix: matrix.clone(),
        })
    }

    pub fn config(&self) -> &BoardConfig {
        &self.config
    }

    pub fn fleet(&self) -> &FleetConfig {
        &self.fleet
    }

    /// Contiguous IL0 shard `[lo, hi)` (in windows) of FPGA `f` — the
    /// same split [`RascBoard`](crate::RascBoard) uses.
    fn shard(&self, k0: usize, f: usize) -> (usize, usize) {
        let per = k0.div_ceil(self.config.fpga_count);
        ((f * per).min(k0), ((f + 1) * per).min(k0))
    }

    /// Run a streamed workload across the fleet with `host_threads`
    /// simulation workers.
    ///
    /// `sink` receives `(entry_index, hits)` — possibly out of entry
    /// order — with exactly the fault-free hit stream of a single-board
    /// run (see the module docs for why). The report is deterministic
    /// in everything but `host_threads`-invariant too. With degradation
    /// disabled, the first retry-budget exhaustion in dispatch order
    /// fails the run.
    pub fn run_stream<I>(
        &self,
        entries: I,
        host_threads: usize,
        mut sink: impl FnMut(u64, Vec<Hit>),
    ) -> Result<FleetReport, BoardFault>
    where
        I: Iterator<Item = Entry> + Send,
    {
        let bases = self.precompute(entries, host_threads, &mut sink)?;
        let sim = self.simulate(&bases, self.fleet.boards, self.config.record_timeline)?;

        let mut modeled = Vec::new();
        if self.config.recovery.degrade {
            let mut ladder: Vec<usize> = MODELED_BOARD_LADDER.to_vec();
            if !ladder.contains(&self.fleet.boards) {
                ladder.push(self.fleet.boards);
                ladder.sort_unstable();
            }
            for n in ladder {
                let makespan = if n == self.fleet.boards {
                    sim.makespan
                } else {
                    self.simulate(&bases, n, false)?.makespan
                };
                modeled.push((n, makespan));
            }
        }

        let nf = self.config.fpga_count;
        let dma = self.config.dma;
        let mut aggregate = BoardReport {
            entries: bases.len() as u64,
            faults: sim.faults,
            fpga_cycles: sim.cycles,
            stall_cycles: sim.stalls,
            busy_pe_cycles: sim.busy_pe,
            fifo_peak: sim.peak,
            bytes_in: sim.bytes_in,
            hit_count: sim.hit_count,
            host_kernel: FunctionalOperator::host_kernel(&self.config.operator, &self.matrix)
                .name(),
            ..BoardReport::default()
        };
        aggregate.bytes_out = sim.hit_count * std::mem::size_of::<(u32, u32)>() as u64;
        aggregate.wire_in_seconds = dma.wire_time(aggregate.bytes_in);
        aggregate.wire_out_seconds = dma.wire_time(aggregate.bytes_out);
        aggregate.sync_seconds =
            self.config.sync_per_entry * bases.len() as f64 * (nf as f64 - 1.0);
        aggregate.setup_seconds = dma.bitstream_load;
        aggregate.accelerated_seconds =
            dma.bitstream_load + sim.makespan + aggregate.wire_out_seconds;

        Ok(FleetReport {
            boards: self.fleet.boards,
            steals: sim.steals,
            quarantined: sim.quarantined,
            redispatched: sim.redispatched,
            entries_by_board: sim.entries_by_board,
            busy_seconds: sim.busy,
            strikes: sim.strikes,
            makespan_seconds: sim.makespan,
            modeled,
            aggregate,
            timeline: sim.timeline,
            events: sim.events,
        })
    }

    /// Run a workload held in memory; per-entry hits in entry order.
    pub fn run_workload(
        &self,
        entries: &[Entry],
    ) -> Result<(Vec<Vec<Hit>>, FleetReport), BoardFault> {
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

    /// Phase A: fault-free base result of one entry, plus its merged,
    /// rebased hit list (FPGA 0's shard first — the single board's
    /// fault-free order).
    fn base_of(
        &self,
        ops: &mut [FunctionalOperator],
        idx: u64,
        entry: &Entry,
    ) -> (EntryBase, Vec<Hit>) {
        let l = self.config.operator.window_len;
        let k0 = entry.il0.len() / l;
        let k1 = entry.il1.len() / l;
        let policy = self.config.recovery;
        let mut shards = Vec::new();
        let mut merged = Vec::new();
        for (f, op) in ops.iter_mut().enumerate() {
            let (lo, hi) = self.shard(k0, f);
            if lo >= hi {
                continue;
            }
            let sh = &entry.il0[lo * l..hi * l];
            let r = op.run_entry(sh, &entry.il1);
            let budget =
                policy.watchdog_budget(op.cycles_lower_bound(hi - lo, k1), ((hi - lo) * k1) as u64);
            shards.push(ShardBase {
                fpga: f,
                cycles: r.cycles,
                stalls: r.stall_cycles,
                busy: r.busy_pe_cycles,
                fifo_peak: r.fifo_peak,
                bytes: (sh.len() + entry.il1.len()) as u64,
                budget,
                hit_count: r.hits.len() as u64,
            });
            merged.extend(r.hits.into_iter().map(|mut h| {
                h.i0 += lo as u32;
                h
            }));
        }
        (EntryBase { entry: idx, shards }, merged)
    }

    /// Phase A over the whole stream: emits hits to `sink` and returns
    /// the index-sorted base costs.
    fn precompute<I>(
        &self,
        entries: I,
        host_threads: usize,
        sink: &mut impl FnMut(u64, Vec<Hit>),
    ) -> Result<Vec<EntryBase>, BoardFault>
    where
        I: Iterator<Item = Entry> + Send,
    {
        let mut bases: Vec<EntryBase> = Vec::new();
        stream_entries(
            entries,
            host_threads,
            || self.make_operators(),
            |ops, idx, entry| Ok(self.base_of(ops, idx, entry)),
            |(base, hits)| {
                sink(base.entry, hits);
                bases.push(base);
            },
        )?;
        // Workers interleave; Phase B needs index order.
        bases.sort_unstable_by_key(|b| b.entry);
        Ok(bases)
    }

    /// Replay board `injector`'s fault stream over one entry's base
    /// cost: the attempt loop of the single board, as arithmetic.
    fn replay_entry(&self, base: &EntryBase, injector: Option<&FaultInjector>) -> Replay {
        let policy = self.config.recovery;
        let clock = self.config.operator.clock_hz as f64;
        let mut rep = Replay::default();
        let mut span = 0.0f64;
        for sb in &base.shards {
            let mut cycles = 0u64;
            let mut stalls = 0u64;
            let mut busy = 0u64;
            let mut peak = 0u64;
            let mut bytes = 0u64;
            let mut backoff = 0u64;
            let mut attempt = 0u32;
            let wedged = loop {
                let fault = injector.and_then(|i| i.fire(base.entry, sb.fpga, attempt));
                // Every dispatch (re-)streams the entry over NUMAlink.
                bytes += sb.bytes;
                let Some(kind) = fault else {
                    cycles += sb.cycles;
                    stalls += sb.stalls;
                    busy += sb.busy;
                    peak = peak.max(sb.fifo_peak);
                    break None;
                };
                rep.faults.faults_injected += 1;
                let harmless = match kind {
                    FaultKind::DmaCorrupt => {
                        cycles += sb.bytes;
                        rep.faults.checksum_mismatches += 1;
                        rep.faults.faults_detected += 1;
                        false
                    }
                    FaultKind::DmaTruncate | FaultKind::AdrFault => {
                        cycles += ADR_HANDSHAKE_CYCLES;
                        rep.faults.protocol_faults += 1;
                        rep.faults.faults_detected += 1;
                        false
                    }
                    FaultKind::FifoStall => {
                        cycles += sb.budget + 1;
                        rep.faults.watchdog_trips += 1;
                        rep.faults.faults_detected += 1;
                        false
                    }
                    FaultKind::FifoOverflow | FaultKind::PeFlip => {
                        // Compute completes; the corruption is caught by
                        // the result checksum — unless there was nothing
                        // to damage, in which case the attempt stands.
                        cycles += sb.cycles;
                        stalls += sb.stalls;
                        peak = peak.max(sb.fifo_peak);
                        if sb.hit_count == 0 {
                            busy += sb.busy;
                            true
                        } else {
                            rep.faults.checksum_mismatches += 1;
                            rep.faults.faults_detected += 1;
                            false
                        }
                    }
                };
                if harmless {
                    break None;
                }
                if attempt >= policy.max_retries {
                    break Some((sb.fpga, kind, attempt + 1));
                }
                rep.faults.retries += 1;
                let bo = policy.backoff(attempt);
                cycles += bo;
                backoff += bo;
                rep.faults.backoff_cycles += bo;
                attempt += 1;
            };
            let wire = self.config.dma.wire_time(bytes);
            let compute = cycles as f64 / clock;
            span = span.max(wire + compute);
            rep.bytes_in += bytes;
            rep.shards.push(ShardReplay {
                fpga: sb.fpga,
                cycles,
                stalls,
                busy,
                peak,
                backoff_cycles: backoff,
                retries: attempt,
                wire,
                compute,
                wedged: wedged.is_some(),
            });
            if let Some(w) = wedged {
                rep.wedge = Some(w);
                break;
            }
            rep.hit_count += sb.hit_count;
        }
        rep.elapsed = span
            + self.config.dma.dispatch_latency
            + self.config.sync_per_entry * (self.config.fpga_count as f64 - 1.0);
        rep
    }

    /// Phase B: the deterministic discrete-event dispatch simulation at
    /// `n_boards` boards. Sequential by design — determinism over speed
    /// (fault replay is hash arithmetic; there is nothing heavy here).
    fn simulate(
        &self,
        bases: &[EntryBase],
        n_boards: usize,
        record: bool,
    ) -> Result<Sim, BoardFault> {
        let n = bases.len();
        let nf = self.config.fpga_count;
        let policy = self.config.recovery;
        let clock = self.config.operator.clock_hz as f64;
        let dma = self.config.dma;
        let injectors: Vec<Option<FaultInjector>> = (0..n_boards)
            .map(|b| {
                self.config
                    .fault_plan
                    .clone()
                    .map(|p| FaultInjector::for_board(p, b))
            })
            .collect();
        let mut st = vec![BoardState::default(); n_boards];
        let mut out = Sim {
            entries_by_board: vec![0; n_boards],
            busy: vec![0.0; n_boards],
            strikes: vec![0; n_boards],
            cycles: vec![0; n_boards * nf],
            stalls: vec![0; n_boards * nf],
            busy_pe: vec![0; n_boards * nf],
            peak: vec![0; n_boards * nf],
            ..Sim::default()
        };
        let mut cursor = 0usize;
        let mut redis: VecDeque<usize> = VecDeque::new();
        let mut failed: Vec<u64> = vec![0; n];
        let mut done = 0usize;

        while done < n {
            // Feed: fill bounded queues, re-dispatches (index order)
            // before fresh stream entries, preferring the healthiest
            // shortest-queued board — fault-aware placement.
            loop {
                let from_redis = !redis.is_empty();
                let e = match (from_redis, cursor < n) {
                    (true, _) => redis[0],
                    (false, true) => cursor,
                    (false, false) => break,
                };
                let mask = failed[e];
                if from_redis
                    && !st
                        .iter()
                        .enumerate()
                        .any(|(i, s)| !s.quarantined && mask & (1u64 << i) == 0)
                {
                    // Every remaining board already exhausted its retry
                    // budget on this entry: host software recomputes it
                    // (losslessly — the sink saw its hits in Phase A).
                    redis.pop_front();
                    done += 1;
                    out.faults.entries_degraded += 1;
                    continue;
                }
                let target = st
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| {
                        !s.quarantined && s.queue.len() < QUEUE_DEPTH && mask & (1u64 << *i) == 0
                    })
                    .min_by_key(|(i, s)| (s.strikes, s.queue.len(), *i))
                    .map(|(i, _)| i);
                let Some(b) = target else {
                    // No queue space anywhere (or none for this
                    // re-dispatch); queues must drain first.
                    break;
                };
                st[b].queue.push_back(e);
                st[b].retired = false;
                if from_redis {
                    redis.pop_front();
                } else {
                    cursor += 1;
                }
            }

            // Earliest-clock active board dispatches next (ties to the
            // lowest id) — the event at the head of simulated time.
            let Some(b) = st
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.quarantined && !s.retired)
                .min_by(|(i, a), (j, c)| a.clock.total_cmp(&c.clock).then(i.cmp(j)))
                .map(|(i, _)| i)
            else {
                unreachable!("fleet scheduler wedged with {} entries pending", n - done)
            };

            let e = match st[b].queue.pop_front() {
                Some(e) => e,
                Option::None => {
                    // Dry board: steal per policy, from the richest queue
                    // of any other board, taking the tail entry.
                    let mut victim: Option<(usize, usize)> = None; // (len, id)
                    if self.fleet.steal_policy == StealPolicy::Richest {
                        for (v, s) in st.iter().enumerate() {
                            if v == b || s.quarantined || s.queue.is_empty() {
                                continue;
                            }
                            let len = s.queue.len();
                            if victim.is_none_or(|(bl, bv)| len > bl || (len == bl && v < bv)) {
                                victim = Some((len, v));
                            }
                        }
                    }
                    match victim {
                        Some((_, v)) => {
                            let e = st[v].queue.pop_back().expect("victim queue emptied");
                            out.steals += 1;
                            if record {
                                out.events.push(FleetEvent {
                                    board: b,
                                    at: st[b].clock,
                                    seconds: dma.dispatch_latency,
                                    kind: FleetEventKind::Steal { victim: v },
                                });
                            }
                            st[b].clock += dma.dispatch_latency;
                            e
                        }
                        Option::None => {
                            st[b].retired = true;
                            continue;
                        }
                    }
                }
            };

            let rep = self.replay_entry(&bases[e], injectors[b].as_ref());
            let t0 = st[b].clock;
            out.faults.merge(&rep.faults);
            out.bytes_in += rep.bytes_in;
            for s in &rep.shards {
                let slot = b * nf + s.fpga;
                out.cycles[slot] += s.cycles;
                out.stalls[slot] += s.stalls;
                out.busy_pe[slot] += s.busy;
                out.peak[slot] = out.peak[slot].max(s.peak);
                if record {
                    out.timeline.push((
                        b,
                        BoardSegment {
                            entry: bases[e].entry,
                            fpga: s.fpga,
                            dma_start: t0,
                            dma_end: t0 + s.wire,
                            compute_start: t0 + s.wire,
                            compute_end: t0 + s.wire + s.compute,
                            backoff_seconds: s.backoff_cycles as f64 / clock,
                            retries: s.retries,
                            degraded: s.wedged,
                        },
                    ));
                }
            }
            st[b].clock += rep.elapsed;
            out.busy[b] += rep.elapsed;

            match rep.wedge {
                Option::None => {
                    done += 1;
                    out.entries_by_board[b] += 1;
                    out.hit_count += rep.hit_count;
                }
                Some((fpga, kind, attempts)) => {
                    st[b].strikes += 1;
                    failed[e] |= 1u64 << b;
                    if !policy.degrade {
                        return Err(BoardFault {
                            entry: bases[e].entry,
                            fpga,
                            kind,
                            attempts,
                        });
                    }
                    out.redispatched += 1;
                    let viable = st
                        .iter()
                        .enumerate()
                        .any(|(i, s)| !s.quarantined && failed[e] & (1u64 << i) == 0);
                    if !viable || failed[e].count_ones() >= 2 {
                        // Struck out on multiple boards: host software.
                        done += 1;
                        out.faults.entries_degraded += 1;
                    } else {
                        redis.push_back(e);
                        redis.make_contiguous().sort_unstable();
                        for s in st.iter_mut() {
                            if !s.quarantined {
                                s.retired = false;
                            }
                        }
                    }
                    let active = st.iter().filter(|s| !s.quarantined).count();
                    if st[b].strikes >= self.fleet.quarantine_after && active > 1 {
                        let drained = st[b].queue.len() as u64;
                        let cost = dma.dispatch_latency * drained as f64;
                        if record {
                            out.events.push(FleetEvent {
                                board: b,
                                at: st[b].clock,
                                seconds: cost,
                                kind: FleetEventKind::QuarantineDrain { drained },
                            });
                        }
                        st[b].clock += cost;
                        while let Some(q) = st[b].queue.pop_front() {
                            redis.push_back(q);
                        }
                        redis.make_contiguous().sort_unstable();
                        st[b].quarantined = true;
                        out.quarantined.push(b);
                        for s in st.iter_mut() {
                            if !s.quarantined {
                                s.retired = false;
                            }
                        }
                    }
                }
            }
        }

        for (b, s) in st.iter().enumerate() {
            out.makespan = out.makespan.max(s.clock);
            out.strikes[b] = s.strikes;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::RascBoard;
    use crate::config::OperatorConfig;
    use crate::fault::FaultPlan;
    use psc_score::blosum62;

    fn test_config(fpgas: usize) -> BoardConfig {
        let mut op = OperatorConfig::new(8);
        op.window_len = 6;
        op.threshold = 20;
        op.slot_size = 4;
        BoardConfig::new(op, fpgas)
    }

    fn workload(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                let k0 = i % 9 + 1;
                let k1 = i % 5 + 1;
                Entry {
                    il0: (0..k0 * 6).map(|r| ((r + i) % 20) as u8).collect(),
                    il1: (0..k1 * 6).map(|r| ((r * 3 + i) % 20) as u8).collect(),
                }
            })
            .collect()
    }

    fn fleet(boards: usize, cfg: BoardConfig) -> RascFleet {
        let f = FleetConfig {
            boards,
            ..FleetConfig::default()
        };
        RascFleet::new(cfg, f, blosum62()).unwrap()
    }

    #[test]
    fn fleet_hits_match_fault_free_single_board_at_any_size() {
        let work = workload(30);
        let (want, _) = RascBoard::new(test_config(2), blosum62())
            .unwrap()
            .run_workload(&work)
            .unwrap();
        for boards in [1, 2, 3, 5, 8] {
            let mut cfg = test_config(2);
            cfg.fault_plan = Some(FaultPlan::seeded_heavy(9));
            let (got, rep) = fleet(boards, cfg).run_workload(&work).unwrap();
            assert_eq!(got, want, "boards={boards} changed the hit stream");
            assert_eq!(rep.boards, boards);
            assert_eq!(rep.aggregate.entries, work.len() as u64);
        }
    }

    #[test]
    fn fleet_report_is_host_thread_invariant() {
        let mut cfg = test_config(2);
        cfg.fault_plan = Some(FaultPlan::seeded_heavy(4));
        cfg.record_timeline = true;
        let f = fleet(4, cfg);
        let work = workload(40);
        let (h1, r1) = f.run_workload(&work).unwrap();
        let mut h4: Vec<Vec<Hit>> = vec![Vec::new(); work.len()];
        let r4 = f
            .run_stream(work.iter().cloned(), 4, |i, h| h4[i as usize] = h)
            .unwrap();
        assert_eq!(h1, h4);
        assert_eq!(r1.makespan_seconds, r4.makespan_seconds);
        assert_eq!(r1.aggregate.fpga_cycles, r4.aggregate.fpga_cycles);
        assert_eq!(r1.aggregate.faults, r4.aggregate.faults);
        assert_eq!(r1.steals, r4.steals);
        assert_eq!(r1.quarantined, r4.quarantined);
        assert_eq!(r1.timeline, r4.timeline);
        assert_eq!(r1.events, r4.events);
        assert_eq!(r1.modeled, r4.modeled);
    }

    #[test]
    fn modeled_ladder_is_self_consistent_and_scales() {
        let f = fleet(4, test_config(1));
        let (_, rep) = f.run_workload(&workload(64)).unwrap();
        let at = |n: usize| {
            rep.modeled
                .iter()
                .find(|(b, _)| *b == n)
                .map(|(_, s)| *s)
                .unwrap()
        };
        assert_eq!(at(4), rep.makespan_seconds, "ladder disagrees with run");
        assert!(at(1) > at(2) && at(2) > at(4) && at(4) > at(8));
        // Near-linear region on an even workload.
        for (n, floor) in [(4, 3.5), (8, 6.0)] {
            let speedup = at(1) / at(n);
            assert!(speedup >= floor, "{n}-board speedup {speedup:.2}");
        }
    }

    #[test]
    fn stealing_reduces_makespan_on_imbalanced_tails() {
        // One entry dwarfs everything else. The board that draws it is
        // pinned for the whole run while entries queued behind it can
        // only move if somebody steals them.
        let mut work = workload(13);
        work[1] = Entry {
            il0: (0..150 * 6).map(|r| ((r * 5) % 20) as u8).collect(),
            il1: (0..100 * 6).map(|r| ((r * 7) % 20) as u8).collect(),
        };
        let mk = |policy| {
            let f = RascFleet::new(
                test_config(1),
                FleetConfig {
                    boards: 2,
                    steal_policy: policy,
                    ..FleetConfig::default()
                },
                blosum62(),
            )
            .unwrap();
            f.run_workload(&work).unwrap().1
        };
        let rich = mk(StealPolicy::Richest);
        let none = mk(StealPolicy::None);
        assert!(rich.steals > 0, "no steals under an imbalanced tail");
        assert_eq!(none.steals, 0);
        assert!(
            rich.makespan_seconds < none.makespan_seconds,
            "stealing made things worse: {} vs {}",
            rich.makespan_seconds,
            none.makespan_seconds
        );
    }

    #[test]
    fn pinned_stuck_board_is_quarantined_and_entries_complete_elsewhere() {
        // The first four entries board 1 sees (round-robin feed puts
        // entries ≡ 1 mod 3 there) wedge forever — but only on board 1.
        // Protocol faults are cheap (8 cycles/attempt), so board 1 stays
        // at the head of simulated time and strikes out twice before the
        // healthy boards can steal its queue dry. The dispatcher must
        // quarantine it and finish every entry elsewhere with unchanged
        // output.
        let work = workload(24);
        let (want, _) = RascBoard::new(test_config(1), blosum62())
            .unwrap()
            .run_workload(&work)
            .unwrap();
        let mut cfg = test_config(1);
        cfg.fault_plan = Some(
            FaultPlan::parse(
                "1:adr-fault:1000000#1,4:adr-fault:1000000#1,\
                 7:adr-fault:1000000#1,10:adr-fault:1000000#1",
            )
            .unwrap(),
        );
        let f = RascFleet::new(
            cfg,
            FleetConfig {
                boards: 3,
                quarantine_after: 2,
                ..FleetConfig::default()
            },
            blosum62(),
        )
        .unwrap();
        let (got, rep) = f.run_workload(&work).unwrap();
        assert_eq!(got, want, "quarantine changed output bytes");
        assert_eq!(rep.quarantined, vec![1]);
        assert_eq!(rep.strikes[1], 2);
        assert!(rep.redispatched >= 2);
        assert_eq!(
            rep.aggregate.faults.entries_degraded, 0,
            "entries must complete on healthy boards, not degrade"
        );
        let completed: u64 = rep.entries_by_board.iter().sum();
        assert_eq!(completed, work.len() as u64);
    }

    #[test]
    fn degrade_disabled_fails_on_the_wedged_entry() {
        let mut cfg = test_config(1);
        cfg.fault_plan = Some(FaultPlan::parse("5:fifo-stall:1000000").unwrap());
        cfg.recovery.degrade = false;
        let f = fleet(2, cfg);
        let err = f.run_workload(&workload(12)).unwrap_err();
        assert_eq!(err.entry, 5);
        assert_eq!(err.kind, FaultKind::FifoStall);
    }

    #[test]
    fn empty_workload_and_occupancy_edges() {
        let f = fleet(3, test_config(1));
        let (hits, rep) = f.run_workload(&[]).unwrap();
        assert!(hits.is_empty());
        assert_eq!(rep.makespan_seconds, 0.0);
        assert_eq!(rep.occupancies(), vec![0.0; 3]);
        assert_eq!(rep.aggregate.bytes_in, 0);
        // Non-empty: occupancies are sane fractions.
        let (_, rep) = f.run_workload(&workload(20)).unwrap();
        for o in rep.occupancies() {
            assert!((0.0..=1.0 + 1e-12).contains(&o), "occupancy {o}");
        }
        assert!(rep.makespan_seconds > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_boards_rejected() {
        let _ = RascFleet::new(
            test_config(1),
            FleetConfig {
                boards: 0,
                ..FleetConfig::default()
            },
            blosum62(),
        );
    }

    #[test]
    fn policy_and_topology_names_round_trip() {
        for p in [StealPolicy::Richest, StealPolicy::None] {
            assert_eq!(StealPolicy::parse(p.name()).unwrap(), p);
        }
        assert!(StealPolicy::parse("greedy").is_err());
    }
}
