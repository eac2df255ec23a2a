//! A fleet of simulated RASC-100 boards behind a work-stealing,
//! fault-aware dispatcher.
//!
//! The paper models one blade; Nguyen & Lavenier's fine-grained
//! parallelization report studies the next axis — spreading seed-based
//! comparison across many accelerator nodes. This module feeds the
//! step-2 entry stream to N identical boards (each with the
//! configured FPGA count) through per-board bounded queues, with
//! steal-from-richest pulls when a board runs dry and quarantine for
//! boards that keep exhausting the retry budget. A single board is a
//! fleet of one: every run goes through here.
//!
//! ## Determinism
//!
//! Phase A (`board::precompute`) scores every entry fault-free
//! in parallel and is the only source of the sink's hits, so the emitted
//! hits are the fault-free hits at any board count, thread count, steal
//! policy or fault plan. Phase B is the dispatch simulation here: a
//! single-threaded discrete-event loop over index-sorted inputs in which
//! each board's clock is its double-buffered timeline's next-DMA-ready
//! time plus the sync and handshakes charged to it, so the report is
//! bit-identical for every `host_threads`. Each board replays the plan
//! under its own fault stream ([`FaultInjector::for_board`]; board 0's
//! is the plan's own).
//!
//! ## Quarantine state machine
//!
//! A board that exhausts the retry budget on an entry's shard takes a
//! *strike*; the entry is re-dispatched to the best other board
//! (deterministic order: pending re-dispatches are kept sorted by entry
//! index and drain before fresh stream entries). A board reaching
//! [`FleetConfig::quarantine_after`] strikes is *drained* — its queued
//! entries go back to the re-dispatch pool in index order — and
//! *quarantined*: it takes no further work. The last active board is
//! never quarantined. An entry that struck out on two boards, or has no
//! other board left, stays where it ran and its wedged shards degrade to
//! the host software path, as on a lone board. Recovery is lossless, so
//! none of this ever changes output bytes — only the simulated clock.

use std::collections::VecDeque;

use psc_score::SubstitutionMatrix;

use crate::board::{
    self, Board, BoardConfig, BoardReport, BoardSegment, Dispatch, Entry, EntryBase, MAX_FPGAS,
};
use crate::fault::{BoardFault, FaultInjector};
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
    /// Number of simulated boards. One board is a fleet of one; the run
    /// report's fleet section and the modeled ladder start at two.
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
    /// Simulated-clock start, seconds. A board's handshakes are charged
    /// beside its timeline, so its steals and drains are laid end to
    /// end after its last compute.
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

/// Dispatch and health report of a fleet run.
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
    /// Entries completed per board (entries with a degraded shard count
    /// for nobody).
    pub entries_by_board: Vec<u64>,
    /// Seconds each board spent on its entries: its timeline, sync and
    /// dispatch handshakes (steal pulls and drains excluded).
    pub busy_seconds: Vec<f64>,
    /// Retry-budget exhaustions per board.
    pub strikes: Vec<u32>,
    /// Simulated wall time of the dispatch schedule: when the last board
    /// finished, charges included. The modeled speedup ladder is ratios
    /// of this.
    pub makespan_seconds: f64,
    /// `(boards, makespan_seconds)` for every ladder point, replaying
    /// the same dispatch schedule at that fleet size. The entry at the
    /// configured board count equals `makespan_seconds` exactly. Empty
    /// on one board, and when degradation is disabled (a ladder replay
    /// could fail).
    pub modeled: Vec<(usize, f64)>,
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

/// Phase B per-board scheduler state.
#[derive(Clone, Debug)]
struct BoardState {
    board: Board,
    queue: VecDeque<usize>,
    strikes: u32,
    quarantined: bool,
    /// Dry and out of steal victims; cleared whenever new work appears.
    retired: bool,
}

/// Whether an active board has not yet struck out on an entry whose
/// strikes `mask` marks.
fn viable(st: &[BoardState], mask: u64) -> bool {
    st.iter()
        .enumerate()
        .any(|(i, s)| !s.quarantined && mask & (1u64 << i) == 0)
}

/// Raw output of one Phase B simulation.
#[derive(Debug, Default)]
struct Sim {
    boards: Vec<Board>,
    makespan: f64,
    steals: u64,
    quarantined: Vec<usize>,
    redispatched: u64,
    entries_by_board: Vec<u64>,
    strikes: Vec<u32>,
    timeline: Vec<BoardSegment>,
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
    /// Build a fleet; every FPGA must fit the configured operator.
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
            (1..=MAX_FPGAS).contains(&config.fpga_count),
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

    /// Run a streamed workload across the fleet with `host_threads`
    /// simulation workers.
    ///
    /// `sink` receives `(entry_index, hits)` — possibly out of entry
    /// order, and in bursts — with exactly the fault-free hit stream
    /// (see the module docs for why). Both reports are
    /// `host_threads`-invariant. With degradation disabled, the first
    /// retry-budget exhaustion in dispatch order fails the run.
    pub fn run_stream<I>(
        &self,
        entries: I,
        host_threads: usize,
        mut sink: impl FnMut(u64, Vec<Hit>),
    ) -> Result<(BoardReport, FleetReport), BoardFault>
    where
        I: Iterator<Item = Entry> + Send,
    {
        let bases = board::precompute(&self.config, &self.matrix, entries, host_threads, &mut sink);
        let sim = self.simulate(&bases, self.fleet.boards, self.config.record_timeline)?;

        let mut modeled = Vec::new();
        if self.fleet.boards >= 2 && self.config.recovery.degrade {
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

        let fleet = FleetReport {
            boards: self.fleet.boards,
            steals: sim.steals,
            quarantined: sim.quarantined,
            redispatched: sim.redispatched,
            entries_by_board: sim.entries_by_board,
            busy_seconds: sim.boards.iter().map(|b| b.busy(&self.config)).collect(),
            strikes: sim.strikes,
            makespan_seconds: sim.makespan,
            modeled,
            events: sim.events,
        };
        let board = board::report(
            &self.config,
            &self.matrix,
            &sim.boards,
            bases.len() as u64,
            sim.timeline,
        );
        Ok((board, fleet))
    }

    /// Run a workload held in memory; per-entry hits in entry order.
    pub fn run_workload(
        &self,
        entries: &[Entry],
    ) -> Result<(Vec<Vec<Hit>>, BoardReport, FleetReport), BoardFault> {
        let mut hits: Vec<Vec<Hit>> = vec![Vec::new(); entries.len()];
        let (board, fleet) = self.run_stream(entries.iter().cloned(), 1, |idx, h| {
            hits[idx as usize] = h;
        })?;
        Ok((hits, board, fleet))
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
        let cfg = &self.config;
        let latency = cfg.dma.dispatch_latency;
        let injectors: Vec<Option<FaultInjector>> = (0..n_boards)
            .map(|b| {
                cfg.fault_plan
                    .clone()
                    .map(|p| FaultInjector::for_board(p, b))
            })
            .collect();
        let mut st: Vec<BoardState> = (0..n_boards)
            .map(|_| BoardState {
                board: Board::new(cfg.fpga_count),
                queue: VecDeque::new(),
                strikes: 0,
                quarantined: false,
                retired: false,
            })
            .collect();
        let mut out = Sim {
            entries_by_board: vec![0; n_boards],
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
                // An entry every active board struck out on may go to any
                // of them; its wedged shards then degrade where it runs.
                let mask = if viable(&st, failed[e]) { failed[e] } else { 0 };
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
                .map(|(i, s)| (i, s.board.clock(cfg)))
                .min_by(|(i, a), (j, c)| a.total_cmp(c).then(i.cmp(j)))
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
                    let Some((_, v)) = victim else {
                        st[b].retired = true;
                        continue;
                    };
                    out.steals += 1;
                    st[b].board.handshakes += 1;
                    if record {
                        out.events.push(FleetEvent {
                            board: b,
                            at: 0.0,
                            seconds: latency,
                            kind: FleetEventKind::Steal { victim: v },
                        });
                    }
                    st[v].queue.pop_back().expect("victim queue emptied")
                }
            };

            let d = Dispatch::replay(&cfg.recovery, &bases[e], injectors[b].as_ref());
            let wedge = d.wedge();
            let stands = match wedge {
                Option::None => true,
                Some(fault) => {
                    st[b].strikes += 1;
                    failed[e] |= 1u64 << b;
                    if !cfg.recovery.degrade {
                        return Err(fault);
                    }
                    // Struck out on two boards, or nowhere else to go.
                    !viable(&st, failed[e]) || failed[e].count_ones() >= 2
                }
            };
            let first_fpga = b * cfg.fpga_count;
            let timeline = record.then_some((&mut out.timeline, first_fpga));
            st[b].board.commit(cfg, &d, stands, timeline);
            if stands {
                done += 1;
                if wedge.is_none() {
                    out.entries_by_board[b] += 1;
                }
            } else {
                out.redispatched += 1;
                redis.push_back(e);
                redis.make_contiguous().sort_unstable();
                for s in st.iter_mut().filter(|s| !s.quarantined) {
                    s.retired = false;
                }
            }
            let active = st.iter().filter(|s| !s.quarantined).count();
            if wedge.is_some() && st[b].strikes >= self.fleet.quarantine_after && active > 1 {
                let drained = st[b].queue.len() as u64;
                st[b].board.handshakes += drained;
                if record {
                    out.events.push(FleetEvent {
                        board: b,
                        at: 0.0,
                        seconds: latency * drained as f64,
                        kind: FleetEventKind::QuarantineDrain { drained },
                    });
                }
                while let Some(q) = st[b].queue.pop_front() {
                    redis.push_back(q);
                }
                redis.make_contiguous().sort_unstable();
                st[b].quarantined = true;
                out.quarantined.push(b);
                for s in st.iter_mut().filter(|s| !s.quarantined) {
                    s.retired = false;
                }
            }
        }

        // Handshakes are charged beside a board's timeline: its steals
        // and drains go end to end after its last compute.
        let mut at: Vec<f64> = st.iter().map(|s| s.board.span()).collect();
        for ev in &mut out.events {
            ev.at = at[ev.board];
            at[ev.board] += ev.seconds;
        }
        out.makespan = st.iter().map(|s| s.board.finish(cfg)).fold(0.0, f64::max);
        out.strikes = st.iter().map(|s| s.strikes).collect();
        out.boards = st.into_iter().map(|s| s.board).collect();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OperatorConfig;
    use crate::fault::{FaultKind, FaultPlan};
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
        let (want, _, _) = fleet(1, test_config(2)).run_workload(&work).unwrap();
        for boards in [1, 2, 3, 5, 8] {
            let mut cfg = test_config(2);
            cfg.fault_plan = Some(FaultPlan::seeded_heavy(9));
            let (got, board, rep) = fleet(boards, cfg).run_workload(&work).unwrap();
            assert_eq!(got, want, "boards={boards} changed the hit stream");
            assert_eq!(rep.boards, boards);
            assert_eq!(board.entries, work.len() as u64);
        }
    }

    #[test]
    fn fleet_report_is_host_thread_invariant() {
        let mut cfg = test_config(2);
        cfg.fault_plan = Some(FaultPlan::seeded_heavy(4));
        cfg.record_timeline = true;
        let f = fleet(4, cfg);
        let work = workload(40);
        let (h1, b1, r1) = f.run_workload(&work).unwrap();
        let mut h4: Vec<Vec<Hit>> = vec![Vec::new(); work.len()];
        let (b4, r4) = f
            .run_stream(work.iter().cloned(), 4, |i, h| h4[i as usize] = h)
            .unwrap();
        assert_eq!(h1, h4);
        assert_eq!(r1.makespan_seconds, r4.makespan_seconds);
        assert_eq!(b1.fpga_cycles, b4.fpga_cycles);
        assert_eq!(b1.faults, b4.faults);
        assert_eq!(r1.steals, r4.steals);
        assert_eq!(r1.quarantined, r4.quarantined);
        assert_eq!(b1.timeline, b4.timeline);
        assert_eq!(r1.events, r4.events);
        assert_eq!(r1.modeled, r4.modeled);
    }

    #[test]
    fn modeled_ladder_is_self_consistent_and_scales() {
        let f = fleet(4, test_config(1));
        let (_, _, rep) = f.run_workload(&workload(64)).unwrap();
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
            f.run_workload(&work).unwrap().2
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
        let (want, _, _) = fleet(1, test_config(1)).run_workload(&work).unwrap();
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
        let (got, board, rep) = f.run_workload(&work).unwrap();
        assert_eq!(got, want, "quarantine changed output bytes");
        assert_eq!(rep.quarantined, vec![1]);
        assert_eq!(rep.strikes[1], 2);
        assert!(rep.redispatched >= 2);
        assert_eq!(
            board.faults.entries_degraded, 0,
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
        let (hits, board, rep) = f.run_workload(&[]).unwrap();
        assert!(hits.is_empty());
        assert_eq!(rep.makespan_seconds, 0.0);
        assert_eq!(rep.occupancies(), vec![0.0; 3]);
        assert_eq!(board.bytes_in, 0);
        // Non-empty: occupancies are sane fractions.
        let (_, _, rep) = f.run_workload(&workload(20)).unwrap();
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
