//! Constructing BLOSUM-style matrices from aligned blocks
//! (Henikoff & Henikoff, PNAS 1992 — the paper's reference \[8\]).
//!
//! The BLOSUM *algorithm*: take ungapped alignment blocks, cluster the
//! sequences of each block at ≥ L % identity (BLOSUM-L) and down-weight
//! each cluster to one vote, count substitution pairs between clusters
//! column by column, and emit the log-odds of observed pair frequencies
//! over background expectation in half-bit units.
//!
//! The canonical BLOSUM62 ships pre-built in [`crate::matrix`]; this
//! module exists so the scoring system itself is reproducible — e.g.
//! building a matrix from `psc-datagen` families and verifying it
//! behaves like a substitution matrix should (see the tests and the
//! `matrix_from_blocks` example assertions).

use psc_seqio::alphabet::{AA_ALPHABET_LEN, AA_STANDARD_LEN};

use crate::matrix::SubstitutionMatrix;

/// One ungapped alignment block: rows are sequences, all the same
/// length, standard residues only.
#[derive(Clone, Debug)]
pub struct Block {
    pub rows: Vec<Vec<u8>>,
}

impl Block {
    pub fn new(rows: Vec<Vec<u8>>) -> Block {
        assert!(!rows.is_empty(), "block needs rows");
        let len = rows[0].len();
        assert!(len > 0, "block needs columns");
        for r in &rows {
            assert_eq!(r.len(), len, "ragged block");
            assert!(
                r.iter().all(|&c| (c as usize) < AA_STANDARD_LEN),
                "blocks must be standard residues only"
            );
        }
        Block { rows }
    }

    fn width(&self) -> usize {
        self.rows[0].len()
    }
}

/// Percent identity between two equal-length rows.
fn identity(a: &[u8], b: &[u8]) -> f64 {
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

/// Single-linkage clustering of a block's rows at the given identity
/// threshold; returns a cluster id per row.
fn cluster_rows(block: &Block, threshold: f64) -> Vec<usize> {
    let n = block.rows.len();
    // Union-find.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for i in 0..n {
        for j in i + 1..n {
            if identity(&block.rows[i], &block.rows[j]) >= threshold {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    (0..n).map(|i| find(&mut parent, i)).collect()
}

/// Pair-frequency accumulator over the 20 standard residues.
#[derive(Clone, Debug)]
pub struct PairCounts {
    counts: Vec<f64>, // 20×20, symmetric
}

impl Default for PairCounts {
    fn default() -> Self {
        PairCounts {
            counts: vec![0.0; AA_STANDARD_LEN * AA_STANDARD_LEN],
        }
    }
}

impl PairCounts {
    fn add(&mut self, a: u8, b: u8, weight: f64) {
        self.counts[a as usize * AA_STANDARD_LEN + b as usize] += weight;
        if a != b {
            self.counts[b as usize * AA_STANDARD_LEN + a as usize] += weight;
        }
    }

    fn total(&self) -> f64 {
        // Each unordered pair counted once: diagonal + upper triangle.
        let mut t = 0.0;
        for i in 0..AA_STANDARD_LEN {
            for j in i..AA_STANDARD_LEN {
                t += self.counts[i * AA_STANDARD_LEN + j];
            }
        }
        t
    }
}

/// Accumulate inter-cluster substitution pairs from one block.
fn count_block(block: &Block, clusters: &[usize], counts: &mut PairCounts) {
    let n = block.rows.len();
    // Cluster sizes for weighting: each cluster contributes one
    // "average sequence".
    let mut size = vec![0usize; n];
    for &c in clusters {
        size[c] += 1;
    }
    for col in 0..block.width() {
        for i in 0..n {
            for j in i + 1..n {
                if clusters[i] == clusters[j] {
                    continue; // within-cluster pairs carry no signal
                }
                let w = 1.0 / (size[clusters[i]] as f64 * size[clusters[j]] as f64);
                counts.add(block.rows[i][col], block.rows[j][col], w);
            }
        }
    }
}

/// Build a BLOSUM-L–style matrix from blocks.
///
/// `clustering` is the BLOSUM level as a fraction (0.62 for BLOSUM62).
/// Scores are half-bit log-odds, rounded to the nearest integer;
/// unobserved pairs get the most negative observed score. The 4
/// non-standard rows/columns are filled conventionally (X = weighted
/// average ≈ −1, `*` = min).
pub fn build_blosum(name: &str, blocks: &[Block], clustering: f64) -> SubstitutionMatrix {
    assert!((0.0..=1.0).contains(&clustering));
    let mut counts = PairCounts::default();
    for block in blocks {
        let clusters = cluster_rows(block, clustering);
        count_block(block, &clusters, &mut counts);
    }
    let total = counts.total();
    assert!(total > 0.0, "no inter-cluster pairs observed");

    // q_ij over unordered pairs; marginals p_i = q_ii + Σ_{j≠i} q_ij/2.
    let q = |i: usize, j: usize| -> f64 { counts.counts[i * AA_STANDARD_LEN + j] / total };
    let mut p = [0.0f64; AA_STANDARD_LEN];
    for (i, pi) in p.iter_mut().enumerate() {
        *pi = q(i, i);
        for j in 0..AA_STANDARD_LEN {
            if j != i {
                *pi += q(i, j) / 2.0;
            }
        }
    }

    let mut flat = [0i8; AA_ALPHABET_LEN * AA_ALPHABET_LEN];
    let mut min_score = 0i32;
    for i in 0..AA_STANDARD_LEN {
        for j in 0..AA_STANDARD_LEN {
            let expected = if i == j {
                p[i] * p[j]
            } else {
                2.0 * p[i] * p[j]
            };
            let observed = if i == j { q(i, i) } else { q(i, j) };
            let s = if observed > 0.0 && expected > 0.0 {
                (2.0 * (observed / expected).log2()).round() as i32
            } else {
                i32::MIN // fill below
            };
            if s != i32::MIN {
                min_score = min_score.min(s);
            }
            flat[i * AA_ALPHABET_LEN + j] = s.clamp(-128, 127) as i8;
        }
    }
    // Unobserved pairs → most negative observed score.
    let fill = min_score.clamp(-128, 0) as i8;
    for i in 0..AA_STANDARD_LEN {
        for j in 0..AA_STANDARD_LEN {
            if flat[i * AA_ALPHABET_LEN + j] == i8::MIN {
                flat[i * AA_ALPHABET_LEN + j] = fill;
            }
        }
    }
    // Non-standard rows: B/Z ≈ average of their members, X ≈ -1, * = min.
    for ns in AA_STANDARD_LEN..AA_ALPHABET_LEN {
        for other in 0..AA_ALPHABET_LEN {
            let v = match ns {
                23 => fill, // '*'
                _ => -1,    // B, Z, X simplified
            };
            flat[ns * AA_ALPHABET_LEN + other] = v;
            flat[other * AA_ALPHABET_LEN + ns] = v;
        }
    }
    flat[23 * AA_ALPHABET_LEN + 23] = 1; // conventional */* reward

    SubstitutionMatrix::from_flat(name, flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freqs::ROBINSON_FREQS;
    use crate::karlin::compute_lambda;
    use psc_seqio::alphabet::encode_protein;

    /// Blocks generated from the BLOSUM62-tilted mutation model of
    /// `psc-datagen`: one ancestor per block, members diverged ~50 %
    /// with no indels (blocks are ungapped by definition). Because the
    /// substitutions are drawn from the BLOSUM62 pair model, the rebuilt
    /// matrix should *correlate* with BLOSUM62 — which is exactly what
    /// the tests check.
    fn model_blocks(count: usize, rows: usize, len: usize) -> Vec<Block> {
        let mut rng = psc_seqio::prng::SplitMix64::new(0xb105);
        let cfg = psc_datagen::MutationConfig {
            divergence: 0.5,
            indel_rate: 0.0,
            indel_extend: 0.0,
        };
        (0..count)
            .map(|_| {
                let ancestor = psc_datagen::random_protein(&mut rng, len);
                let members: Vec<Vec<u8>> = (0..rows)
                    .map(|_| psc_datagen::mutate_protein(&mut rng, &ancestor, &cfg))
                    .collect();
                Block::new(members)
            })
            .collect()
    }

    #[test]
    fn built_matrix_is_a_substitution_matrix() {
        let m = build_blosum("MODEL62", &model_blocks(40, 6, 120), 0.62);
        assert!(m.is_symmetric());
        // Identities must score positively for every standard residue.
        for c in 0..20u8 {
            assert!(m.score(c, c) > 0, "diagonal for {c}: {}", m.score(c, c));
        }
        // And a usable local-alignment system: λ exists.
        let lambda = compute_lambda(&m, &ROBINSON_FREQS);
        assert!(lambda.is_some(), "expected score must be negative");
    }

    #[test]
    fn rebuilt_matrix_correlates_with_blosum62() {
        // The generator substitutes residues according to BLOSUM62's
        // implied pair model, so rebuilding a matrix from its output
        // must recover BLOSUM62's structure (up to sampling noise and
        // the divergence level). Check the Pearson correlation over all
        // standard pairs.
        let m = build_blosum("MODEL62", &model_blocks(60, 6, 150), 0.62);
        let b = crate::matrix::blosum62();
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy, mut n) =
            (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in 0..20u8 {
            for j in 0..=i {
                let x = m.score(i, j) as f64;
                let y = b.score(i, j) as f64;
                sx += x;
                sy += y;
                sxx += x * x;
                syy += y * y;
                sxy += x * y;
                n += 1.0;
            }
        }
        let r = (n * sxy - sx * sy) / ((n * sxx - sx * sx).sqrt() * (n * syy - sy * sy).sqrt());
        assert!(r > 0.6, "correlation with BLOSUM62 too weak: {r:.3}");
    }

    #[test]
    fn conservative_exchanges_outscore_random_ones() {
        // The mutation model exchanges I↔V and K↔R far more often than
        // chemically distant pairs.
        let m = build_blosum("MODEL62", &model_blocks(40, 6, 120), 0.62);
        let aa = |c: u8| psc_seqio::Aa::from_ascii_lossy(c).0;
        assert!(m.score(aa(b'I'), aa(b'V')) > m.score(aa(b'C'), aa(b'G')));
        assert!(m.score(aa(b'K'), aa(b'R')) > m.score(aa(b'W'), aa(b'P')));
    }

    #[test]
    fn clustering_level_changes_the_matrix() {
        // Members are ~50% diverged from the ancestor (≈35-45% pairwise),
        // so a 30% clustering threshold merges them while 90% keeps them
        // apart: the two settings must count pairs differently.
        let blocks = model_blocks(30, 6, 120);
        let high = build_blosum("MODEL-HI", &blocks, 0.90);
        let low = build_blosum("MODEL-LO", &blocks, 0.30);
        assert_ne!(high.flat()[..], low.flat()[..]);
    }

    #[test]
    fn cluster_rows_links_similar() {
        let block = Block::new(vec![
            encode_protein(b"MKVLAWMKVLAW"),
            encode_protein(b"MKVLAWMKVLAV"), // 92% id to row 0
            encode_protein(b"GGGGGGGGGGGG"), // unrelated
        ]);
        let clusters = cluster_rows(&block, 0.8);
        assert_eq!(clusters[0], clusters[1]);
        assert_ne!(clusters[0], clusters[2]);
        // Strict threshold: all separate.
        let clusters = cluster_rows(&block, 0.99);
        assert_ne!(clusters[0], clusters[1]);
    }

    #[test]
    #[should_panic]
    fn ragged_blocks_rejected() {
        Block::new(vec![encode_protein(b"MKV"), encode_protein(b"MK")]);
    }

    #[test]
    #[should_panic]
    fn nonstandard_blocks_rejected() {
        Block::new(vec![encode_protein(b"MKX")]);
    }

    #[test]
    fn pair_counts_symmetry() {
        let mut c = PairCounts::default();
        c.add(3, 7, 1.0);
        c.add(7, 3, 0.5);
        assert!((c.counts[3 * 20 + 7] - 1.5).abs() < 1e-12);
        assert!((c.counts[7 * 20 + 3] - 1.5).abs() < 1e-12);
        assert!((c.total() - 1.5).abs() < 1e-12);
        c.add(2, 2, 2.0);
        assert!((c.total() - 3.5).abs() < 1e-12);
    }
}
