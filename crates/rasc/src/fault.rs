//! Deterministic fault injection and recovery primitives.
//!
//! The paper's speedups assume the RASC blade, the ADR handshake and
//! the NUMAlink DMA path never misbehave; a deployed offload stack
//! cannot. This module supplies the pieces the board model uses to
//! exercise that reality on purpose:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — *what* goes wrong and *when*,
//!   either scripted per entry or drawn from a seeded hash. Everything
//!   is a pure function of `(seed, entry, fpga, attempt)`: no wall
//!   clock, no iteration-order dependence, so a plan replays
//!   identically across runs and host-thread counts.
//! * [`RecoveryPolicy`] — bounded retries with simulated-time backoff,
//!   a cycle watchdog budget, and the degrade-to-software switch.
//! * [`FaultSummary`] / [`BoardFault`] — what recovery observed, and
//!   the terminal error when it is exhausted.
//!
//! The invariant the whole design serves: under *any* plan, recovered
//! output is bit-identical to the fault-free run — a fault may cost
//! simulated cycles, never results.

use psc_seqio::prng::mix;

/// One kind of injectable hardware misbehaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A bit flip on the NUMAlink input stream (caught by the board's
    /// stream checksum before compute starts).
    DmaCorrupt,
    /// The input DMA delivers fewer windows than the ADR count
    /// registers promised (caught by the ADR protocol check).
    DmaTruncate,
    /// The command FSM latches `Status::Fault` on dispatch.
    AdrFault,
    /// The cascaded result FIFOs drop tail results under overflow
    /// (caught by the host-side result checksum).
    FifoOverflow,
    /// The output controller wedges; the run never completes (caught
    /// by the cycle watchdog).
    FifoStall,
    /// One PE reports a corrupted score (caught by the host-side
    /// result checksum, which covers scores).
    PeFlip,
}

/// Every kind, in stable order (seeded plans index into this).
pub const ALL_FAULT_KINDS: [FaultKind; 6] = [
    FaultKind::DmaCorrupt,
    FaultKind::DmaTruncate,
    FaultKind::AdrFault,
    FaultKind::FifoOverflow,
    FaultKind::FifoStall,
    FaultKind::PeFlip,
];

impl FaultKind {
    /// Stable name used by the CLI plan syntax and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DmaCorrupt => "dma-corrupt",
            FaultKind::DmaTruncate => "dma-truncate",
            FaultKind::AdrFault => "adr-fault",
            FaultKind::FifoOverflow => "fifo-overflow",
            FaultKind::FifoStall => "fifo-stall",
            FaultKind::PeFlip => "pe-flip",
        }
    }

    /// Inverse of [`FaultKind::name`].
    pub fn parse(s: &str) -> Result<FaultKind, String> {
        ALL_FAULT_KINDS
            .iter()
            .copied()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = ALL_FAULT_KINDS.iter().map(FaultKind::name).collect();
                format!(
                    "unknown fault kind {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scripted fault: fires on the first `attempts` attempts of one
/// entry, on one FPGA or on both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Stream index of the entry to hit.
    pub entry: u64,
    /// Restrict to one FPGA of the board (`None` = every FPGA).
    pub fpga: Option<usize>,
    pub kind: FaultKind,
    /// How many consecutive attempts fail before the fault clears; a
    /// value above the retry budget makes the fault persistent.
    pub attempts: u32,
}

/// A complete, replayable description of what goes wrong in a run.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlan {
    /// An explicit list of faults (CLI `--fault-plan`).
    Scripted(Vec<FaultSpec>),
    /// Hash-driven faults: each `(entry, fpga)` pair independently
    /// faults with probability `rate_ppm / 1e6`, with a persistence of
    /// 1–6 attempts drawn from the same hash (CLI `--fault-seed`).
    Seeded { seed: u64, rate_ppm: u32 },
}

/// Default fault probability of seeded plans, parts per million.
pub const DEFAULT_FAULT_RATE_PPM: u32 = 250_000;

impl FaultPlan {
    /// A seeded plan at the default rate.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan::Seeded {
            seed,
            rate_ppm: DEFAULT_FAULT_RATE_PPM,
        }
    }

    /// Parse the CLI plan syntax: comma-separated
    /// `ENTRY:KIND[:ATTEMPTS][@FPGA]` items, e.g.
    /// `0:pe-flip,3:fifo-stall:9@1`.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut specs = Vec::new();
        for item in text.split(',').filter(|s| !s.trim().is_empty()) {
            let item = item.trim();
            let (body, fpga) = match item.split_once('@') {
                Some((body, f)) => {
                    let f = f
                        .parse::<usize>()
                        .map_err(|_| format!("bad FPGA index in fault spec {item:?}"))?;
                    (body, Some(f))
                }
                None => (item, None),
            };
            let mut parts = body.split(':');
            let entry = parts
                .next()
                .unwrap_or("")
                .parse::<u64>()
                .map_err(|_| format!("bad entry index in fault spec {item:?}"))?;
            let kind = FaultKind::parse(parts.next().ok_or_else(|| {
                format!("fault spec {item:?} is missing a kind (ENTRY:KIND[:ATTEMPTS][@FPGA])")
            })?)
            .map_err(|e| format!("{e} in fault spec {item:?}"))?;
            let attempts = match parts.next() {
                None => 1,
                Some(n) => n
                    .parse::<u32>()
                    .map_err(|_| format!("bad attempt count in fault spec {item:?}"))?,
            };
            if parts.next().is_some() {
                return Err(format!("trailing fields in fault spec {item:?}"));
            }
            specs.push(FaultSpec {
                entry,
                fpga,
                kind,
                attempts,
            });
        }
        if specs.is_empty() {
            return Err("empty fault plan".into());
        }
        Ok(FaultPlan::Scripted(specs))
    }
}

/// The hash behind seeded plans, so injection is a pure function of its
/// integer inputs.
fn mix4(seed: u64, entry: u64, fpga: u64, salt: u64) -> u64 {
    mix(seed ^ mix(entry ^ mix(fpga ^ mix(salt))))
}

/// Evaluates a [`FaultPlan`] at each dispatch attempt.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan }
    }

    /// Does attempt `attempt` (0-based) of `entry` on FPGA `fpga`
    /// fault, and how? Deterministic in its arguments.
    pub fn fire(&self, entry: u64, fpga: usize, attempt: u32) -> Option<FaultKind> {
        match &self.plan {
            FaultPlan::Scripted(specs) => specs
                .iter()
                .find(|s| {
                    s.entry == entry && s.fpga.is_none_or(|f| f == fpga) && attempt < s.attempts
                })
                .map(|s| s.kind),
            &FaultPlan::Seeded { seed, rate_ppm } => {
                let faulty = mix4(seed, entry, fpga as u64, 1) % 1_000_000 < rate_ppm as u64;
                if !faulty {
                    return None;
                }
                // Uniform 1–6 attempts: short faults exercise the retry
                // path, long ones the degrade path (the default retry
                // budget is 3).
                let persistence = 1 + (mix4(seed, entry, fpga as u64, 3) % 6) as u32;
                if attempt >= persistence {
                    return None;
                }
                let kind = ALL_FAULT_KINDS
                    [(mix4(seed, entry, fpga as u64, 2) % ALL_FAULT_KINDS.len() as u64) as usize];
                Some(kind)
            }
        }
    }
}

/// Ceiling on [`RecoveryPolicy::max_retries`] that the CLI accepts. A
/// fault whose persistence outlasts the budget is replayed attempt by
/// attempt, so an unbounded budget against a persistent scripted fault
/// spins for `u32::MAX` attempts; 64 is far past the point where the
/// backoff stops growing (attempt 16).
pub const MAX_RETRIES: u32 = 64;

/// Retry / degradation policy of the board's dispatch loop.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Redispatches after the first failed attempt (the CLI caps it at
    /// [`MAX_RETRIES`]).
    pub max_retries: u32,
    /// Simulated backoff before retry `n` is `backoff_cycles << n`.
    pub backoff_cycles: u64,
    /// After exhausting retries: recompute the entry with the host
    /// software kernel (`true`) or fail the run (`false`).
    pub degrade: bool,
    /// Watchdog budget multiplier over the entry's no-hit cycle lower
    /// bound (see [`RecoveryPolicy::watchdog_budget`]).
    pub watchdog_factor: u64,
    /// Fixed watchdog slack, cycles.
    pub watchdog_slack: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 3,
            backoff_cycles: 256,
            degrade: true,
            watchdog_factor: 2,
            watchdog_slack: 1024,
        }
    }
}

impl RecoveryPolicy {
    /// Cycle budget the watchdog grants one dispatch: any legitimate
    /// run costs at most `lower_bound + stalls`, and stalls are bounded
    /// by the hit count, itself at most `pairs` — so
    /// `lower_bound * factor + pairs + slack` never trips on a healthy
    /// operator (asserted by tests) while a wedged one exceeds it.
    pub fn watchdog_budget(&self, lower_bound: u64, pairs: u64) -> u64 {
        lower_bound
            .saturating_mul(self.watchdog_factor)
            .saturating_add(pairs)
            .saturating_add(self.watchdog_slack)
    }

    /// Simulated cycles spent backing off before retry `attempt`.
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.backoff_cycles << attempt.min(16)
    }
}

/// What fault handling observed during a run. All counters are pure
/// functions of the workload and the plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Faults the injector fired.
    pub faults_injected: u64,
    /// Faults a detection point caught (≤ injected: a corruption that
    /// changes nothing — e.g. a FIFO drop on an empty result set — is
    /// harmless and accepted).
    pub faults_detected: u64,
    /// Of which: stream/result checksum mismatches.
    pub checksum_mismatches: u64,
    /// Of which: cycle-watchdog expirations.
    pub watchdog_trips: u64,
    /// Of which: ADR protocol/status faults.
    pub protocol_faults: u64,
    /// Redispatches performed.
    pub retries: u64,
    /// Entry shards recomputed on the host software path.
    pub entries_degraded: u64,
    /// Simulated cycles spent in retry backoff.
    pub backoff_cycles: u64,
}

impl FaultSummary {
    pub fn merge(&mut self, other: &FaultSummary) {
        self.faults_injected += other.faults_injected;
        self.faults_detected += other.faults_detected;
        self.checksum_mismatches += other.checksum_mismatches;
        self.watchdog_trips += other.watchdog_trips;
        self.protocol_faults += other.protocol_faults;
        self.retries += other.retries;
        self.entries_degraded += other.entries_degraded;
        self.backoff_cycles += other.backoff_cycles;
    }

    /// Anything to report?
    pub fn any(&self) -> bool {
        *self != FaultSummary::default()
    }
}

/// Terminal board error: one entry kept faulting past the retry budget
/// and degradation was disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoardFault {
    /// Stream index of the failing entry.
    pub entry: u64,
    pub fpga: usize,
    /// The kind observed on the final attempt.
    pub kind: FaultKind,
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for BoardFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "entry {} faulted on FPGA {} ({}) after {} attempts",
            self.entry, self.fpga, self.kind, self.attempts
        )
    }
}

impl std::error::Error for BoardFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parse_round_trips() {
        let plan = FaultPlan::parse("0:pe-flip,3:fifo-stall:9@1, 7:dma-corrupt:2").unwrap();
        let FaultPlan::Scripted(specs) = &plan else {
            panic!("scripted expected")
        };
        assert_eq!(
            specs[0],
            FaultSpec {
                entry: 0,
                fpga: None,
                kind: FaultKind::PeFlip,
                attempts: 1
            }
        );
        assert_eq!(
            specs[1],
            FaultSpec {
                entry: 3,
                fpga: Some(1),
                kind: FaultKind::FifoStall,
                attempts: 9
            }
        );
        assert_eq!(specs[2].entry, 7);
        assert_eq!(specs[2].attempts, 2);
    }

    #[test]
    fn plan_parse_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("x:pe-flip").is_err());
        assert!(FaultPlan::parse("0:warp-core-breach").is_err());
        assert!(FaultPlan::parse("0:pe-flip:one").is_err());
        assert!(FaultPlan::parse("0:pe-flip:1:2").is_err());
        assert!(FaultPlan::parse("0:pe-flip@x").is_err());
    }

    #[test]
    fn kind_names_round_trip() {
        for k in ALL_FAULT_KINDS {
            assert_eq!(FaultKind::parse(k.name()).unwrap(), k);
        }
        assert!(FaultKind::parse("nope").is_err());
    }

    #[test]
    fn scripted_fire_matches_spec() {
        let inj = FaultInjector::new(FaultPlan::parse("2:adr-fault:2@1").unwrap());
        assert_eq!(inj.fire(2, 1, 0), Some(FaultKind::AdrFault));
        assert_eq!(inj.fire(2, 1, 1), Some(FaultKind::AdrFault));
        assert_eq!(inj.fire(2, 1, 2), None, "fault clears after 2 attempts");
        assert_eq!(inj.fire(2, 0, 0), None, "wrong FPGA");
        assert_eq!(inj.fire(1, 1, 0), None, "wrong entry");
    }

    #[test]
    fn seeded_fire_is_deterministic_and_rate_bounded() {
        let inj = FaultInjector::new(FaultPlan::seeded(42));
        let again = FaultInjector::new(FaultPlan::seeded(42));
        let mut fired = 0u64;
        for entry in 0..2000u64 {
            assert_eq!(inj.fire(entry, 0, 0), again.fire(entry, 0, 0));
            if inj.fire(entry, 0, 0).is_some() {
                fired += 1;
            }
        }
        // 25% nominal rate: accept a generous band.
        assert!((200..800).contains(&fired), "fired {fired}");
        // Different seeds disagree somewhere.
        let other = FaultInjector::new(FaultPlan::seeded(43));
        assert!((0..2000u64).any(|e| inj.fire(e, 0, 0) != other.fire(e, 0, 0)));
    }

    #[test]
    fn seeded_persistence_spans_retry_budget() {
        // Some faults clear within the default 3 retries, some outlast
        // them — both recovery paths stay exercised.
        let inj = FaultInjector::new(FaultPlan::seeded(7));
        let mut cleared = 0;
        let mut persistent = 0;
        for entry in 0..2000u64 {
            if inj.fire(entry, 0, 0).is_none() {
                continue;
            }
            if inj.fire(entry, 0, 3).is_none() {
                cleared += 1;
            } else {
                persistent += 1;
            }
        }
        assert!(cleared > 0);
        assert!(persistent > 0);
    }

    #[test]
    fn software_recompute_finds_the_operator_hit_set() {
        use crate::config::OperatorConfig;
        use crate::functional::{BatchScorer, FunctionalOperator};
        let m = psc_score::blosum62();
        // Two IL1 tiles, three IL0 batches: a flood (threshold 1, every
        // pair of identical windows hits) and a quiet entry (random
        // windows under the paper's threshold).
        let flood: Vec<u8> = (0..60u8).map(|r| r % 20).collect();
        let random = |seed: u64, n: usize| -> Vec<u8> {
            (0..(n * 60) as u64)
                .map(|i| (mix4(seed, i, 0, 0) % 24) as u8)
                .collect()
        };
        let mut quiet0 = random(3, 20);
        let quiet1 = random(4, 600);
        // One planted pair in the second tile, so quiet is not empty.
        quiet0[13 * 60..14 * 60].copy_from_slice(&quiet1[550 * 60..551 * 60]);
        for (threshold, il0, il1) in [
            (1, flood.repeat(20), flood.repeat(600)),
            (45, quiet0, quiet1),
        ] {
            let mut cfg = OperatorConfig::new(8);
            cfg.threshold = threshold;
            let mut expect = FunctionalOperator::new(cfg.clone(), m)
                .unwrap()
                .run_entry(&il0, &il1)
                .hits;
            // A degraded shard's host recompute is the operator's own
            // scan, before the operator reorders it into drain order.
            let mut got = Vec::new();
            BatchScorer::new(&cfg, m).scan(&il0, &il1, &mut got);
            if threshold == 1 {
                assert_eq!(got.len(), 20 * 600, "flood: every pair hits");
            } else {
                assert!((1..20).contains(&got.len()), "quiet: {} hits", got.len());
            }
            // i0-major inside each 512-window tile, tiles in order.
            assert!(got
                .windows(2)
                .all(|w| (w[0].i1 / 512, w[0].i0, w[0].i1) < (w[1].i1 / 512, w[1].i0, w[1].i1)));
            expect.sort_unstable_by_key(|h| (h.i0, h.i1));
            got.sort_unstable_by_key(|h| (h.i0, h.i1));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn watchdog_budget_covers_legitimate_runs() {
        let p = RecoveryPolicy::default();
        // lower_bound + stalls (≤ pairs) is the legitimate ceiling.
        assert!(p.watchdog_budget(1000, 50) >= 1000 + 50);
        assert!(
            p.watchdog_budget(0, 0) >= 1,
            "slack keeps empty entries alive"
        );
        assert!(p.backoff(1) > p.backoff(0), "backoff escalates");
        // Huge attempt counts must not shift past the word width.
        assert!(p.backoff(100) >= p.backoff(16));
    }
}
