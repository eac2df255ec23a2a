//! Property tests for scoring and statistics.

use psc_score::karlin::{compute_h, compute_lambda, ungapped_params};
use psc_score::matrix::match_mismatch;
use psc_score::{blosum62, parse_ncbi_matrix, ROBINSON_FREQS};
use psc_seqio::prng::{for_cases, SplitMix64};

/// Random valid frequency vector (positive, normalized).
fn freqs(g: &mut SplitMix64) -> [f64; 20] {
    let v: [f64; 20] = std::array::from_fn(|_| 0.01 + 0.99 * g.f64());
    let sum: f64 = v.iter().sum();
    v.map(|x| x / sum)
}

/// λ exists for any match/mismatch system with negative expectation,
/// and satisfies its defining equation.
#[test]
fn lambda_solves_defining_equation() {
    for_cases(0x5c01, 256, |g| {
        let freqs = freqs(g);
        let m = match_mismatch("mm", g.range(1i8..12), g.range(-12i8..-1));
        if m.expected_score(&freqs) < -1e-6 {
            let lambda = compute_lambda(&m, &freqs).expect("negative drift has a root");
            assert!(lambda > 0.0);
            // Σ pᵢpⱼ e^{λ sᵢⱼ} = 1.
            let mut phi = 0.0;
            for (i, &pi) in freqs.iter().enumerate() {
                for (j, &pj) in freqs.iter().enumerate() {
                    phi += pi * pj * (lambda * m.score(i as u8, j as u8) as f64).exp();
                }
            }
            assert!((phi - 1.0).abs() < 1e-6, "phi = {phi}");
            // H is positive for a usable system.
            let h = compute_h(&m, &freqs, lambda);
            assert!(h > 0.0);
        }
    });
}

/// E-values are monotone decreasing in score and increasing in
/// search space; bit scores invert consistently.
fn check_evalue_monotonicity(s1: i32, ds: i32, m: usize, n: usize) {
    let p = ungapped_params(blosum62(), &ROBINSON_FREQS).unwrap();
    assert!(p.evalue(s1 + ds, m, n) < p.evalue(s1, m, n));
    assert!(p.evalue(s1, m * 2, n) > p.evalue(s1, m, n));
    assert!(p.bit_score(s1 + ds) > p.bit_score(s1));
    // score_for_evalue is the inverse threshold.
    let e = p.evalue(s1, m, n);
    let s = p.score_for_evalue(e, m, n);
    assert!(s <= s1, "s={s} s1={s1}");
    assert!(p.evalue(s, m, n) <= e * (1.0 + 1e-9));
}

#[test]
fn evalue_monotonicity() {
    for_cases(0x5c02, 256, |g| {
        check_evalue_monotonicity(
            g.range(1i32..200),
            g.range(1i32..50),
            g.range(1usize..10_000),
            g.range(1usize..10_000),
        );
    });
}

/// The case proptest once shrank a failure of `evalue_monotonicity` to.
#[test]
fn evalue_monotonicity_at_the_recorded_regression() {
    check_evalue_monotonicity(5, 1, 72, 3151);
}

/// The NCBI-format matrix parser round-trips arbitrary symmetric
/// matrices rendered as text.
#[test]
fn parser_round_trips() {
    for_cases(0x5c03, 256, |g| {
        // A symmetric 24x24 of random scores.
        let mut flat = [0i8; 576];
        for a in 0..24usize {
            for b in 0..=a {
                let v = g.range(-9i8..9);
                flat[a * 24 + b] = v;
                flat[b * 24 + a] = v;
            }
        }
        let m = psc_score::SubstitutionMatrix::from_flat("rand", flat);
        // Render in NCBI format.
        let mut text = String::from("  ");
        for c in psc_seqio::alphabet::AA_LETTERS {
            text.push(' ');
            text.push(c as char);
        }
        text.push('\n');
        for a in 0..24u8 {
            text.push(psc_seqio::alphabet::AA_LETTERS[a as usize] as char);
            for b in 0..24u8 {
                text.push_str(&format!(" {}", m.score(a, b)));
            }
            text.push('\n');
        }
        let parsed = parse_ncbi_matrix("rand", &text).unwrap();
        assert_eq!(&parsed.flat()[..], &m.flat()[..]);
    });
}
