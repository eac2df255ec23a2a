//! Property tests for the retrieval metrics.

use psc_quality::{average_precision, roc_n};
use psc_seqio::prng::{for_cases, SplitMix64};

fn labels(g: &mut SplitMix64) -> Vec<bool> {
    g.vec(0..120, |g| g.chance(0.5))
}

/// Both metrics live in [0, 1].
#[test]
fn metrics_bounded() {
    for_cases(0x9a01, 256, |g| {
        let (ranked, n, total) = (labels(g), g.range(1usize..100), g.range(1usize..50));
        let total = total.max(ranked.iter().filter(|&&t| t).count());
        let r = roc_n(&ranked, n, total);
        assert!((0.0..=1.0).contains(&r), "roc {r}");
        let ap = average_precision(&ranked, total);
        assert!((0.0..=1.0).contains(&ap), "ap {ap}");
    });
}

/// Promoting a true positive one rank upward (swapping with a false
/// positive directly above it) never decreases either metric.
#[test]
fn promotion_monotone() {
    for_cases(0x9a02, 256, |g| {
        let (ranked, total) = (labels(g), g.range(1usize..50));
        let total = total.max(ranked.iter().filter(|&&t| t).count());
        // Find a FP directly above a TP and swap.
        let mut promoted = ranked.clone();
        if let Some(i) = (1..promoted.len()).find(|&i| promoted[i] && !promoted[i - 1]) {
            promoted.swap(i, i - 1);
            assert!(roc_n(&promoted, 50, total) >= roc_n(&ranked, 50, total) - 1e-12);
            assert!(
                average_precision(&promoted, total) >= average_precision(&ranked, total) - 1e-12
            );
        }
    });
}

/// A perfect prefix of all `total` positives scores 1.0 on both.
#[test]
fn perfect_prefix_is_one() {
    for_cases(0x9a03, 256, |g| {
        let (total, junk) = (g.range(1usize..40), g.range(0usize..40));
        let mut ranked = vec![true; total];
        ranked.extend(std::iter::repeat_n(false, junk));
        assert!((roc_n(&ranked, 50, total) - 1.0).abs() < 1e-12);
        assert!((average_precision(&ranked, total) - 1.0).abs() < 1e-12);
    });
}

/// Appending false positives after the n-th never changes ROC_n.
#[test]
fn roc_ignores_tail_beyond_n() {
    for_cases(0x9a04, 256, |g| {
        let (ranked, n, extra) = (labels(g), g.range(1usize..20), g.range(1usize..30));
        let total = ranked.iter().filter(|&&t| t).count().max(1);
        let fp_count = ranked.iter().filter(|&&t| !t).count();
        if fp_count >= n {
            let mut extended = ranked.clone();
            extended.extend(std::iter::repeat_n(false, extra));
            assert_eq!(roc_n(&ranked, n, total), roc_n(&extended, n, total));
        }
    });
}
