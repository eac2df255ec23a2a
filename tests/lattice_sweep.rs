//! Every point of the differential lattice (`tests/lattice.rs`), one
//! test per workload so they run side by side.

#[path = "lattice.rs"]
mod lattice;

use lattice::{check_where, points, WORKLOADS};

macro_rules! sweeps {
    ($($test:ident: $workload:literal,)*) => {
        $(#[test]
        fn $test() {
            check_where(|w, _| w.name == $workload);
        })*

        /// The sweeps are the whole table, the table is not small, and
        /// its ISA axis holds each level below the CPU's.
        #[test]
        fn every_workload_is_swept() {
            assert!(WORKLOADS.iter().map(|w| w.name).eq([$($workload),*]));
            let isa = points(0).into_iter().filter(|(label, _)| label.starts_with("ISA level"));
            let mut below = psc_seqio::isa::levels("an ISA point");
            below.pop(); // the CPU's own: the oracle's
            assert!(isa.map(|(_, p)| p.cfg.isa).eq(below));
            let total: usize = (0..WORKLOADS.len()).map(|w| points(w).len()).sum();
            assert!(total >= 200, "{total} points");
            println!("{total} lattice points over {} workloads", WORKLOADS.len());
        }
    };
}

sweeps! {
    genome: "genome",
    short_subset4: "short-subset4",
    short_subset3: "short-subset3",
    threshold_127: "threshold-127",
    threshold_128: "threshold-128",
    masked: "masked",
    window_20: "window-20",
}
