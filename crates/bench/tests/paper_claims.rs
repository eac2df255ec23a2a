//! The paper's board claims (PAPER.md Tables 3 and 4), asserted on the
//! quick ladder that the `experiments` tables print.
//!
//! Every value read here is simulated: a board report's accelerated
//! seconds, cycles and PE utilisation. None is a wall, so each claim
//! holds on any host and at any host thread count.

use std::sync::LazyLock;

use psc_bench::data::build_workload;
use psc_bench::ladder::{run_ladder, Components, LadderRow, RascRun, PE_SIZES};
use psc_bench::Scale;

/// The quick ladder's single-FPGA runs at every array size and its
/// Table 3 pairs, built once for every test of this file.
static ROWS: LazyLock<Vec<LadderRow>> = LazyLock::new(|| {
    let scale = Scale::quick();
    let comps = Components {
        rasc: true,
        dual: true,
        ..Components::NONE
    };
    run_ladder(&scale, &build_workload(&scale), comps)
});

fn seconds(run: &RascRun) -> f64 {
    run.board.accelerated_seconds
}

/// Panics with the whole series unless it strictly grows.
fn assert_strictly_grows(what: &str, series: &[f64]) {
    assert!(
        series.windows(2).all(|w| w[0] < w[1]),
        "{what} does not strictly grow with bank size: {series:?}"
    );
}

/// Table 4: the 192 ÷ 64-PE step-2 gain grows with bank size, and more
/// PEs are faster once the index lists are long enough to fill the
/// array. The smallest bank's lists under-fill it, so there 192 PEs
/// only must not lose to 64.
#[test]
fn table4_pe_gain_grows_with_bank_size() {
    let mut gains = Vec::new();
    for (i, row) in ROWS.iter().enumerate() {
        let pes: Vec<usize> = row.rasc.iter().map(|r| r.pe_count).collect();
        assert_eq!(pes, PE_SIZES, "{}", row.label);
        let secs: Vec<f64> = row.rasc.iter().map(seconds).collect();
        if i == 0 {
            let cycles: Vec<u64> = row.rasc.iter().map(|r| r.board.fpga_cycles[0]).collect();
            assert!(
                secs[2] <= secs[0],
                "{}: 192 PEs slower than 64: {secs:?} s, {cycles:?} cycles",
                row.label
            );
        } else {
            assert!(
                secs[0] > secs[1] && secs[1] > secs[2],
                "{}: step-2 seconds do not fall 64 → 128 → 192 PEs: {secs:?}",
                row.label
            );
        }
        gains.push(secs[0] / secs[2]);
    }
    assert_strictly_grows("the 192 ÷ 64-PE step-2 gain", &gains);
}

/// Table 3: at 192 PEs and the raised threshold, the second FPGA's gain
/// grows with bank size and never reaches 2.
#[test]
fn table3_two_fpga_gain_grows_and_stays_below_two() {
    let mut gains = Vec::new();
    for row in ROWS.iter() {
        let (one, two) = row.dual.as_ref().expect("the ladder ran the Table 3 pair");
        assert_eq!((one.fpga_count, two.fpga_count), (1, 2));
        let gain = seconds(one) / seconds(two);
        assert!(gain < 2.0, "{}: two FPGAs gain {gain} ≥ 2", row.label);
        gains.push(gain);
    }
    assert_strictly_grows("the 1 ÷ 2-FPGA step-2 gain", &gains);
}

/// The paper's "larger the amount of data, better the efficiency": PE
/// utilisation grows with bank size at every array size.
#[test]
fn pe_utilisation_grows_with_bank_size() {
    for (i, pe) in PE_SIZES.into_iter().enumerate() {
        let series: Vec<f64> = ROWS
            .iter()
            .map(|row| row.rasc[i].board.utilization(pe))
            .collect();
        assert_strictly_grows(&format!("{pe}-PE utilisation"), &series);
    }
}
