//! Driving the PSC operator directly — the hardware view.
//!
//! Shows the `psc-rasc` substrate on its own: resource checking against
//! the Virtex-4 LX200, cycle-accurate vs functional execution of one
//! index entry, array-size scaling, and the result-FIFO backpressure
//! pathology from paper §4.1.
//!
//! ```text
//! cargo run --release --example rasc_simulation
//! ```

use psc_rasc::{FunctionalOperator, OperatorConfig, PscOperator, ResourceModel};
use psc_score::blosum62;
use psc_seqio::prng::SplitMix64;

/// Random window stream: `count` windows of `len` residues.
fn windows(rng: &mut SplitMix64, count: usize, len: usize) -> Vec<u8> {
    (0..count * len).map(|_| rng.range(0..20u8)).collect()
}

fn main() {
    let mut rng = SplitMix64::new(7);

    // --- Resource model -----------------------------------------------
    println!("Virtex-4 LX200 resource check (window 60, slots of 16):");
    for pes in [64, 128, 192, 256] {
        let mut cfg = OperatorConfig::new(pes);
        cfg.window_len = 60;
        match ResourceModel::check(&cfg) {
            Ok(u) => println!(
                "  {pes:>4} PEs: {:>6} slices ({:>2}%), {:>3} BRAMs ({:>2}%)",
                u.slices, u.slice_pct, u.brams, u.bram_pct
            ),
            Err(e) => println!("  {pes:>4} PEs: DOES NOT FIT ({e})"),
        }
    }
    println!(
        "  largest array that fits: {} PEs\n",
        ResourceModel::max_pes(60, 16)
    );

    // --- Cycle-accurate vs functional ----------------------------------
    let mut cfg = OperatorConfig::new(64);
    cfg.window_len = 60;
    cfg.threshold = 45;
    let il0 = windows(&mut rng, 100, 60);
    let il1 = windows(&mut rng, 400, 60);

    let mut hw = PscOperator::new(cfg.clone(), blosum62()).unwrap();
    let mut sw = FunctionalOperator::new(cfg.clone(), blosum62()).unwrap();
    let a = hw.run_entry(&il0, &il1);
    let b = sw.run_entry(&il0, &il1);
    assert_eq!(a, b, "cycle-accurate and functional paths must agree");
    println!("one entry, 100 × 400 windows on 64 PEs:");
    println!(
        "  cycles: {}  (= {:.3} ms at 100 MHz)   hits: {}   stalls: {}",
        a.cycles,
        cfg.cycles_to_seconds(a.cycles) * 1e3,
        a.hits.len(),
        a.stall_cycles
    );
    println!(
        "  PE utilization: {:.1}%  (cycle-accurate ≡ functional ✓)\n",
        a.utilization(64) * 100.0
    );

    // --- Array scaling --------------------------------------------------
    println!("array-size scaling on the same entry:");
    for pes in [32, 64, 128, 192] {
        let mut c = OperatorConfig::new(pes);
        c.window_len = 60;
        c.threshold = 45;
        let mut op = FunctionalOperator::new(c.clone(), blosum62()).unwrap();
        let r = op.run_entry(&il0, &il1);
        println!(
            "  {pes:>4} PEs: {:>9} cycles  ({:>5.2} ms)  utilization {:>5.1}%",
            r.cycles,
            c.cycles_to_seconds(r.cycles) * 1e3,
            r.utilization(pes) * 100.0
        );
    }

    // --- Backpressure (paper §4.1) --------------------------------------
    println!("\nresult-path backpressure (identical windows, tiny FIFO):");
    let flood0 = vec![0u8; 64 * 60]; // 64 all-Ala windows
    let flood1 = vec![0u8; 256 * 60];
    for (threshold, label) in [(10, "low threshold (floods)"), (400, "raised threshold")] {
        let mut c = OperatorConfig::new(64);
        c.window_len = 60;
        c.threshold = threshold;
        c.fifo_capacity = 32;
        let mut op = FunctionalOperator::new(c, blosum62()).unwrap();
        let r = op.run_entry(&flood0, &flood1);
        println!(
            "  {label:<26} cycles={:>8}  stalls={:>7}  hits={}",
            r.cycles,
            r.stall_cycles,
            r.hits.len()
        );
    }
    println!("\n(the paper worked around exactly this by raising the ungapped threshold)");
}
