//! Property test: the cycle-accurate PSC operator and the functional +
//! analytic fast path agree exactly — same hits, same order, same cycle
//! count, same stall count — across randomized configurations and window
//! streams. This is what licenses running the paper's experiment sweeps
//! on the fast path.

use psc_align::Kernel;
use psc_rasc::{FunctionalOperator, OperatorConfig, PscOperator};
use psc_score::blosum62;
use psc_seqio::prng::{for_cases, SplitMix64};

#[derive(Clone, Debug)]
struct Case {
    pe_count: usize,
    slot_size: usize,
    window_len: usize,
    threshold: i32,
    fifo_capacity: usize,
    kernel: Kernel,
    il0: Vec<u8>,
    il1: Vec<u8>,
}

fn case(g: &mut SplitMix64) -> Case {
    let window_len = g.range(2usize..65);
    let (k0, k1) = (g.range(0usize..20), g.range(0usize..81));
    let mut windows = |k: usize| g.vec(window_len * k..=window_len * k, |g| g.range(0u8..24));
    Case {
        il0: windows(k0),
        il1: windows(k1),
        pe_count: g.range(1usize..12),
        slot_size: g.range(1usize..6),
        window_len,
        threshold: g.range(0i32..40),
        fifo_capacity: g.range(1usize..12),
        kernel: *g.select(&[Kernel::ClampedSum, Kernel::PaperLiteral]),
    }
}

#[test]
fn cycle_accurate_equals_functional() {
    for_cases(0xe901, 128, |g| {
        let c = case(g);
        let mut cfg = OperatorConfig::new(c.pe_count);
        cfg.slot_size = c.slot_size;
        cfg.window_len = c.window_len;
        cfg.threshold = c.threshold;
        cfg.fifo_capacity = c.fifo_capacity;
        cfg.kernel = c.kernel;

        let mut hw = PscOperator::new(cfg.clone(), blosum62()).unwrap();
        let mut sw = FunctionalOperator::new(cfg, blosum62()).unwrap();

        let a = hw.run_entry(&c.il0, &c.il1);
        let b = sw.run_entry(&c.il0, &c.il1);
        assert_eq!(&a.hits, &b.hits, "hit stream diverged");
        assert_eq!(a.cycles, b.cycles, "cycle count diverged");
        assert_eq!(a.stall_cycles, b.stall_cycles, "stalls diverged");
        assert_eq!(
            a.busy_pe_cycles, b.busy_pe_cycles,
            "busy accounting diverged"
        );

        // And the no-traffic lower bound really is a lower bound.
        let k0 = c.il0.len() / c.window_len;
        let k1 = c.il1.len() / c.window_len;
        assert!(b.cycles >= sw.cycles_lower_bound(k0, k1));
    });
}

/// The hit set is exactly the pairs the software kernel scores at or
/// above threshold, independent of array geometry.
#[test]
fn hits_independent_of_geometry() {
    for_cases(0xe902, 128, |g| {
        let c = case(g);
        let mut cfg_a = OperatorConfig::new(c.pe_count);
        cfg_a.slot_size = c.slot_size;
        cfg_a.window_len = c.window_len;
        cfg_a.threshold = c.threshold;
        cfg_a.fifo_capacity = c.fifo_capacity;
        cfg_a.kernel = c.kernel;
        let mut cfg_b = cfg_a.clone();
        cfg_b.pe_count = 1;
        cfg_b.slot_size = 1;
        cfg_b.fifo_capacity = 1;

        let a = FunctionalOperator::new(cfg_a, blosum62())
            .unwrap()
            .run_entry(&c.il0, &c.il1);
        let b = FunctionalOperator::new(cfg_b, blosum62())
            .unwrap()
            .run_entry(&c.il0, &c.il1);
        let mut ha = a.hits.clone();
        let mut hb = b.hits.clone();
        ha.sort_by_key(|h| (h.i0, h.i1));
        hb.sort_by_key(|h| (h.i0, h.i1));
        assert_eq!(ha, hb);
    });
}
