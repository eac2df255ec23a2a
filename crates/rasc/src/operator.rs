//! The cycle-accurate PSC operator (paper Figure 1).
//!
//! For one index entry `k` the operator receives `K0` windows from
//! `IL0` and `K1` windows from `IL1` and reports every pair whose
//! windowed ungapped score reaches the threshold.
//!
//! ## Cycle accounting contract
//!
//! Both this simulator and the fast path in [`crate::functional`]
//! implement *exactly* the following model (property-tested equal), with
//! `P` PEs, window length `L`, `S` slots and result capacity `C`:
//!
//! * empty entries (`K0 == 0 || K1 == 0`) cost nothing;
//! * IL0 is processed in `⌈K0/P⌉` batches; a batch with `P_b` windows
//!   spends `P_b · L` cycles streaming them into the shift registers
//!   (input controller 0 delivers one residue per clock);
//! * `S − 1` cycles of register-barrier fill per batch before the IL1
//!   stream reaches the last slot;
//! * each of the `K1` compute waves takes `L` cycles, during which the
//!   output controller drains up to `L` pending results (one per clock);
//! * at a wave boundary every *active* PE whose maximum reached the
//!   threshold emits one result, in PE order, into the cascaded FIFOs
//!   (aggregate capacity `C`); if occupancy exceeds `C` the array
//!   **stalls** one cycle per excess result — the backpressure that made
//!   the paper raise its threshold for the dual-FPGA runs (§4.1);
//! * at batch end the remaining results drain (one per cycle) plus `S`
//!   cycles of cascade flush.

// A hot module: no panic path outside test code (DESIGN §9).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use psc_score::SubstitutionMatrix;
use psc_seqio::alphabet::AA_ALPHABET_LEN;

use crate::config::OperatorConfig;
use crate::fifo::Fifo;
use crate::pe::Pe;

/// PE array utilization: busy PE·cycles over `pe_count × cycles`.
///
/// The single definition behind [`EntryResult::utilization`] and
/// [`crate::board::BoardReport::utilization`]; `0.0` when no cycles ran.
pub fn pe_utilization(busy_pe_cycles: u64, cycles: u64, pe_count: usize) -> f64 {
    if cycles == 0 || pe_count == 0 {
        0.0
    } else {
        busy_pe_cycles as f64 / (cycles as f64 * pe_count as f64)
    }
}

/// One reported pair: indices into the entry's IL0/IL1 window arrays and
/// the windowed score.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hit {
    pub i0: u32,
    pub i1: u32,
    pub score: i32,
}

/// Result of running one index entry through the operator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EntryResult {
    /// Hits in hardware drain order (wave-major, PE order within a wave).
    pub hits: Vec<Hit>,
    /// Total cycles spent on the entry.
    pub cycles: u64,
    /// Cycles lost to result-path backpressure (subset of `cycles`).
    pub stall_cycles: u64,
    /// PE·cycles actually scoring (for utilization reporting).
    pub busy_pe_cycles: u64,
    /// High-water occupancy of the cascaded result FIFOs.
    pub fifo_peak: u64,
}

impl EntryResult {
    /// Merge another entry's result into this one (sequential execution).
    pub fn absorb(&mut self, other: EntryResult) {
        self.hits.extend(other.hits);
        self.cycles += other.cycles;
        self.stall_cycles += other.stall_cycles;
        self.busy_pe_cycles += other.busy_pe_cycles;
        // A high-water mark, not a flow: max-merge.
        self.fifo_peak = self.fifo_peak.max(other.fifo_peak);
    }

    /// PE array utilization (see [`pe_utilization`]).
    pub fn utilization(&self, pe_count: usize) -> f64 {
        pe_utilization(self.busy_pe_cycles, self.cycles, pe_count)
    }
}

/// Cycle-accurate PSC operator instance.
#[derive(Debug)]
pub struct PscOperator {
    config: OperatorConfig,
    rom: [i8; AA_ALPHABET_LEN * AA_ALPHABET_LEN],
    pes: Vec<Pe>,
}

impl PscOperator {
    /// Instantiate with a bitstream-time substitution ROM.
    pub fn new(config: OperatorConfig, matrix: &SubstitutionMatrix) -> Result<PscOperator, String> {
        config.validate()?;
        let pes = (0..config.pe_count)
            .map(|_| Pe::new(config.window_len, config.kernel))
            .collect();
        Ok(PscOperator {
            rom: *matrix.flat(),
            config,
            pes,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &OperatorConfig {
        &self.config
    }

    /// Process one index entry. `il0`/`il1` are concatenations of
    /// `window_len`-sized windows.
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
        let slots = self.config.num_slots();

        // The cascaded result FIFOs, modelled as one bounded queue of
        // their aggregate capacity. It is drained empty at every batch
        // end, so a single instance serves the whole entry and its
        // high-water mark covers all batches.
        let mut fifo: Fifo<Hit> = Fifo::new(self.config.fifo_capacity);

        let mut batch_start = 0usize;
        while batch_start < k0 {
            let pb = p.min(k0 - batch_start);

            // Load phase: stream P_b windows into the shift registers,
            // one residue per clock.
            for pe in &mut self.pes {
                pe.reset_for_load();
            }
            for (slot, pe) in self.pes.iter_mut().take(pb).enumerate() {
                let w = &il0[(batch_start + slot) * l..(batch_start + slot + 1) * l];
                for &r in w {
                    pe.load_residue(r);
                    out.cycles += 1;
                }
            }

            // Register-barrier fill before the IL1 stream reaches the
            // last slot.
            out.cycles += slots as u64 - 1;

            // Compute waves.
            for wave in 0..k1 {
                let w1 = &il1[wave * l..(wave + 1) * l];
                for pe in self.pes.iter_mut().take(pb) {
                    pe.begin_wave();
                }
                for &r in w1 {
                    for pe in self.pes.iter_mut().take(pb) {
                        pe.step(&self.rom, r);
                    }
                    out.cycles += 1;
                    // Output controller drains one result per clock.
                    if let Some(hit) = fifo.pop() {
                        out.hits.push(hit);
                    }
                }
                out.busy_pe_cycles += (pb * l) as u64;

                // Wave boundary: result-management modules scan their
                // slots in PE order and push into the cascaded FIFOs.
                for (idx, pe) in self.pes.iter().take(pb).enumerate() {
                    debug_assert!(pe.is_active());
                    let score = pe.wave_score();
                    if score >= self.config.threshold {
                        let hit = Hit {
                            i0: (batch_start + idx) as u32,
                            i1: wave as u32,
                            score,
                        };
                        if let Err(hit) = fifo.push(hit) {
                            // Backpressure: the array stalls one cycle,
                            // during which the output controller drains
                            // one slot, making room for the push.
                            out.cycles += 1;
                            out.stall_cycles += 1;
                            #[expect(
                                clippy::expect_used,
                                reason = "pop of a full FIFO cannot fail"
                            )]
                            out.hits.push(fifo.pop().expect("full FIFO drains"));
                            #[expect(clippy::expect_used, reason = "the pop above freed a slot")]
                            fifo.push(hit).expect("slot just freed");
                        }
                    }
                }
            }

            // Batch end: drain what's left, flush the cascade.
            out.cycles += fifo.len() as u64 + slots as u64;
            while let Some(hit) = fifo.pop() {
                out.hits.push(hit);
            }
            batch_start += pb;
        }
        out.fifo_peak = fifo.peak() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_align::{ungapped_score, Kernel};
    use psc_score::blosum62;
    use psc_seqio::alphabet::encode_protein;

    fn windows(words: &[&[u8]]) -> Vec<u8> {
        let mut v = Vec::new();
        for w in words {
            v.extend_from_slice(&encode_protein(w));
        }
        v
    }

    fn small_config(pes: usize, window_len: usize, threshold: i32) -> OperatorConfig {
        let mut c = OperatorConfig::new(pes);
        c.window_len = window_len;
        c.threshold = threshold;
        c.slot_size = 2;
        c.fifo_capacity = 8;
        c
    }

    #[test]
    fn finds_matching_pairs_bit_exactly() {
        let cfg = small_config(4, 6, 20);
        let mut op = PscOperator::new(cfg, blosum62()).unwrap();
        let il0 = windows(&[b"MKVLAW", b"PPPPPP", b"MKVLAV"]);
        let il1 = windows(&[b"MKVLAW", b"GGGGGG"]);
        let r = op.run_entry(&il0, &il1);
        // Expected: (0,0) scores 33; (2,0) scores 33-11+... MKVLAV vs
        // MKVLAW: W->V = -3 ⇒ 5+5+4+4+4 = 22 then max stays 22+? compute
        // via the software kernel for truth.
        let m = blosum62();
        let mut expect = Vec::new();
        for wave in 0..2 {
            for i in 0..3 {
                let s = ungapped_score(
                    Kernel::ClampedSum,
                    m,
                    &il0[i * 6..(i + 1) * 6],
                    &il1[wave * 6..(wave + 1) * 6],
                );
                if s >= 20 {
                    expect.push(Hit {
                        i0: i as u32,
                        i1: wave as u32,
                        score: s,
                    });
                }
            }
        }
        assert_eq!(r.hits, expect);
        assert!(!r.hits.is_empty());
    }

    #[test]
    fn empty_entries_cost_nothing() {
        let cfg = small_config(4, 6, 20);
        let mut op = PscOperator::new(cfg, blosum62()).unwrap();
        let il0 = windows(&[b"MKVLAW"]);
        let r = op.run_entry(&il0, &[]);
        assert_eq!(r.cycles, 0);
        assert!(r.hits.is_empty());
        let r = op.run_entry(&[], &il0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn cycle_count_single_batch() {
        // 2 PEs (1 slot of 2), window 6, 2 IL0 windows, 3 IL1 windows, no
        // hits (threshold absurd): load 12 + fill 0 + compute 18 + drain
        // 0 + flush 1 = 31.
        let mut cfg = small_config(2, 6, 1000);
        cfg.slot_size = 2;
        let mut op = PscOperator::new(cfg, blosum62()).unwrap();
        let il0 = windows(&[b"MKVLAW", b"GGGGGG"]);
        let il1 = windows(&[b"MKVLAW", b"PPPPPP", b"AAAAAA"]);
        let r = op.run_entry(&il0, &il1);
        assert_eq!(r.cycles, 12 + 18 + 1);
        assert_eq!(r.stall_cycles, 0);
        assert_eq!(r.busy_pe_cycles, (2 * 6 * 3) as u64);
    }

    #[test]
    fn cycle_count_multiple_batches() {
        // 2 PEs, 5 IL0 windows → batches of 2,2,1.
        let mut cfg = small_config(2, 4, 1000);
        cfg.slot_size = 1; // 2 slots → fill 1, flush 2
        let mut op = PscOperator::new(cfg, blosum62()).unwrap();
        let il0 = windows(&[b"MKVL", b"GGGG", b"AAAA", b"RNDC", b"HFYW"]);
        let il1 = windows(&[b"MKVL", b"PPPP"]);
        let r = op.run_entry(&il0, &il1);
        // Batch 1: load 8 + fill 1 + compute 8 + flush 2 = 19. Batch 2
        // same. Batch 3: load 4 + 1 + 8 + 2 = 15. Total 53.
        assert_eq!(r.cycles, 19 + 19 + 15);
    }

    #[test]
    fn stalls_when_results_flood() {
        // Every pair hits (identical windows, threshold 1) with a tiny
        // FIFO: stalls must appear.
        let mut cfg = small_config(8, 4, 1);
        cfg.fifo_capacity = 2;
        cfg.slot_size = 4;
        let mut op = PscOperator::new(cfg, blosum62()).unwrap();
        let w: Vec<&[u8]> = vec![b"MKVL"; 8];
        let il0 = windows(&w);
        let il1 = windows(&w);
        let r = op.run_entry(&il0, &il1);
        assert_eq!(r.hits.len(), 64);
        assert!(r.stall_cycles > 0, "expected backpressure stalls");
    }

    #[test]
    fn raised_threshold_removes_stalls() {
        // The paper's workaround: raise the threshold, traffic vanishes,
        // compute cost unchanged.
        let mut base = small_config(8, 4, 1);
        base.fifo_capacity = 2;
        let mut flood = PscOperator::new(base.clone(), blosum62()).unwrap();
        let mut quiet_cfg = base;
        quiet_cfg.threshold = 1000;
        let mut quiet = PscOperator::new(quiet_cfg, blosum62()).unwrap();
        let w: Vec<&[u8]> = vec![b"MKVL"; 8];
        let il0 = windows(&w);
        let il1 = windows(&w);
        let rf = flood.run_entry(&il0, &il1);
        let rq = quiet.run_entry(&il0, &il1);
        assert_eq!(rq.stall_cycles, 0);
        assert!(rq.hits.is_empty());
        assert!(rf.cycles > rq.cycles);
        // Same scoring work either way.
        assert_eq!(rf.busy_pe_cycles, rq.busy_pe_cycles);
    }

    #[test]
    fn partial_array_underutilized() {
        // 1 IL0 window on a 8-PE array: utilization ≈ 1/8 of compute.
        let cfg = small_config(8, 4, 1000);
        let mut op = PscOperator::new(cfg, blosum62()).unwrap();
        let il0 = windows(&[b"MKVL"]);
        let il1 = windows(&[b"MKVL", b"GGGG", b"AAAA", b"RNDC"]);
        let r = op.run_entry(&il0, &il1);
        let u = r.utilization(8);
        assert!(u < 0.2, "utilization {u}");
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = EntryResult {
            hits: vec![Hit {
                i0: 0,
                i1: 0,
                score: 5,
            }],
            cycles: 10,
            stall_cycles: 1,
            busy_pe_cycles: 4,
            fifo_peak: 3,
        };
        a.absorb(EntryResult {
            hits: vec![Hit {
                i0: 1,
                i1: 1,
                score: 7,
            }],
            cycles: 20,
            stall_cycles: 2,
            busy_pe_cycles: 8,
            fifo_peak: 2,
        });
        assert_eq!(a.hits.len(), 2);
        assert_eq!(a.cycles, 30);
        assert_eq!(a.stall_cycles, 3);
        assert_eq!(a.busy_pe_cycles, 12);
        // High-water mark, not a flow: max, not sum.
        assert_eq!(a.fifo_peak, 3);
    }

    #[test]
    fn utilization_zero_cycles_is_zero() {
        let r = EntryResult::default();
        assert_eq!(r.utilization(192), 0.0);
        assert_eq!(pe_utilization(0, 0, 192), 0.0);
        assert_eq!(pe_utilization(10, 0, 192), 0.0);
        assert_eq!(pe_utilization(10, 10, 0), 0.0);
        assert!((pe_utilization(96, 100, 8) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn fifo_peak_saturates_at_capacity_under_flood() {
        let mut cfg = small_config(8, 4, 1);
        cfg.fifo_capacity = 2;
        cfg.slot_size = 4;
        let mut op = PscOperator::new(cfg, blosum62()).unwrap();
        let w: Vec<&[u8]> = vec![b"MKVL"; 8];
        let il0 = windows(&w);
        let il1 = windows(&w);
        let r = op.run_entry(&il0, &il1);
        assert!(r.stall_cycles > 0);
        assert_eq!(r.fifo_peak, 2, "a stalled FIFO peaked at capacity");
    }

    #[test]
    fn fifo_peak_zero_without_hits() {
        let cfg = small_config(4, 6, 10_000);
        let mut op = PscOperator::new(cfg, blosum62()).unwrap();
        let il0 = windows(&[b"MKVLAW"]);
        let il1 = windows(&[b"GGGGGG"]);
        let r = op.run_entry(&il0, &il1);
        assert!(r.hits.is_empty());
        assert_eq!(r.fifo_peak, 0);
    }
}
