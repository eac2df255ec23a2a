//! The scoring substrate end to end: build a BLOSUM-style matrix from
//! alignment blocks (Henikoff & Henikoff, the paper's ref [8]), compute
//! its Karlin–Altschul statistics, and compare with the canonical
//! BLOSUM62.
//!
//! ```text
//! cargo run --release --example build_matrix
//! ```

use psc_score::karlin::ungapped_params;
use psc_score::{blosum62, build_blosum, Block, ROBINSON_FREQS};
use psc_seqio::prng::SplitMix64;

fn main() {
    // Alignment blocks from the BLOSUM62-tilted mutation model: 80
    // families of 6 members at 50% divergence (ungapped, standard
    // residues only — exactly what the BLOCKS database provides).
    let mut rng = SplitMix64::new(0xb10c);
    let mutation = psc_datagen::MutationConfig {
        divergence: 0.5,
        indel_rate: 0.0,
        indel_extend: 0.0,
    };
    let blocks: Vec<Block> = (0..80)
        .map(|_| {
            let ancestor = psc_datagen::random_protein(&mut rng, 150);
            Block::new(
                (0..6)
                    .map(|_| psc_datagen::mutate_protein(&mut rng, &ancestor, &mutation))
                    .collect(),
            )
        })
        .collect();
    println!(
        "built {} blocks ({} rows × {} columns each)",
        blocks.len(),
        6,
        150
    );

    let rebuilt = build_blosum("REBUILT62", &blocks, 0.62);
    let canonical = blosum62();

    // Correlation with the canonical matrix over standard pairs.
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy, mut n) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for i in 0..20u8 {
        for j in 0..=i {
            let (x, y) = (rebuilt.score(i, j) as f64, canonical.score(i, j) as f64);
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
            n += 1.0;
        }
    }
    let r = (n * sxy - sx * sy) / ((n * sxx - sx * sx).sqrt() * (n * syy - sy * sy).sqrt());
    println!("correlation with canonical BLOSUM62: r = {r:.3}");

    // Statistics of both scoring systems.
    for (label, m) in [("canonical BLOSUM62", canonical), ("rebuilt", &rebuilt)] {
        let p = ungapped_params(m, &ROBINSON_FREQS).expect("valid scoring system");
        println!(
            "{label:>20}: λ = {:.4}, K = {:.3}, H = {:.3} nats, E[s] = {:.2}",
            p.lambda,
            p.k,
            p.h,
            m.expected_score(&ROBINSON_FREQS)
        );
    }

    // A few familiar exchanges.
    println!("\nscore comparison (rebuilt vs canonical):");
    for (a, b) in [
        (b'I', b'V'),
        (b'K', b'R'),
        (b'W', b'W'),
        (b'C', b'G'),
        (b'A', b'A'),
    ] {
        let (ca, cb) = (
            psc_seqio::Aa::from_ascii_lossy(a),
            psc_seqio::Aa::from_ascii_lossy(b),
        );
        println!(
            "  {}/{}:  {:>3} vs {:>3}",
            a as char,
            b as char,
            rebuilt.score_aa(ca, cb),
            canonical.score_aa(ca, cb)
        );
    }
    assert!(r > 0.6, "rebuilt matrix should correlate with BLOSUM62");
}
