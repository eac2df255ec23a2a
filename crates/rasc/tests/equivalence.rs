//! Property test: the cycle-accurate PSC operator and the functional +
//! analytic fast path agree exactly — same hits, same order, same cycle
//! count, same stall count — across randomized configurations and window
//! streams. This is what licenses running the paper's experiment sweeps
//! on the fast path.

use proptest::prelude::*;
use psc_align::Kernel;
use psc_rasc::{FunctionalOperator, OperatorConfig, PscOperator};
use psc_score::blosum62;

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

fn case() -> impl Strategy<Value = Case> {
    (
        1usize..12,      // pe_count
        1usize..6,       // slot_size
        2usize..65,      // window_len
        0i32..40,        // threshold
        1usize..12,      // fifo_capacity
        prop::bool::ANY, // kernel select
        0usize..20,      // k0
        0usize..81,      // k1
    )
        .prop_flat_map(
            |(pe_count, slot_size, window_len, threshold, fifo_capacity, literal, k0, k1)| {
                let res = proptest::collection::vec(0u8..24, window_len * k0);
                let res1 = proptest::collection::vec(0u8..24, window_len * k1);
                (res, res1).prop_map(move |(il0, il1)| Case {
                    pe_count,
                    slot_size,
                    window_len,
                    threshold,
                    fifo_capacity,
                    kernel: if literal {
                        Kernel::PaperLiteral
                    } else {
                        Kernel::ClampedSum
                    },
                    il0,
                    il1,
                })
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cycle_accurate_equals_functional(c in case()) {
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
        prop_assert_eq!(&a.hits, &b.hits, "hit stream diverged");
        prop_assert_eq!(a.cycles, b.cycles, "cycle count diverged");
        prop_assert_eq!(a.stall_cycles, b.stall_cycles, "stalls diverged");
        prop_assert_eq!(a.busy_pe_cycles, b.busy_pe_cycles, "busy accounting diverged");

        // And the no-traffic lower bound really is a lower bound.
        let k0 = c.il0.len() / c.window_len;
        let k1 = c.il1.len() / c.window_len;
        prop_assert!(b.cycles >= sw.cycles_lower_bound(k0, k1));
    }

    /// The hit set is exactly the pairs the software kernel scores at or
    /// above threshold, independent of array geometry.
    #[test]
    fn hits_independent_of_geometry(c in case()) {
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

        let a = FunctionalOperator::new(cfg_a, blosum62()).unwrap().run_entry(&c.il0, &c.il1);
        let b = FunctionalOperator::new(cfg_b, blosum62()).unwrap().run_entry(&c.il0, &c.il1);
        let mut ha = a.hits.clone();
        let mut hb = b.hits.clone();
        ha.sort_by_key(|h| (h.i0, h.i1));
        hb.sort_by_key(|h| (h.i0, h.i1));
        prop_assert_eq!(ha, hb);
    }
}
