//! A BLOSUM62-tilted mutation model for deriving homologous proteins.
//!
//! Substitutions are drawn from the conditional pair distribution implied
//! by the scoring system, `q(j | i) ∝ pⱼ e^{λ sᵢⱼ}` — the distribution
//! under which BLOSUM62 is the log-odds optimal matrix. Homologs produced
//! this way look exactly like the similarities the scoring system is tuned
//! to find, which is what the paper's sensitivity benchmark needs.

use psc_score::karlin::compute_lambda;
use psc_score::{blosum62, ROBINSON_FREQS};
use psc_seqio::prng::{cumulative, SplitMix64};

use crate::protein::BACKGROUND;

/// Mutation parameters.
#[derive(Clone, Debug)]
pub struct MutationConfig {
    /// Per-residue probability of substitution (0 = identical copy).
    pub divergence: f64,
    /// Per-position probability of opening an indel.
    pub indel_rate: f64,
    /// Geometric continuation probability for indel length.
    pub indel_extend: f64,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            divergence: 0.3,
            indel_rate: 0.005,
            indel_extend: 0.4,
        }
    }
}

/// Precomputed conditional substitution tables `q(j | i)`, each the
/// running sums `SplitMix64::weighted` draws from.
struct ConditionalModel {
    tables: Vec<Vec<f64>>,
}

impl ConditionalModel {
    fn new() -> ConditionalModel {
        let matrix = blosum62();
        let lambda = compute_lambda(matrix, &ROBINSON_FREQS)
            .expect("BLOSUM62 has valid ungapped statistics");
        let tables = (0..20u8)
            .map(|i| {
                let weights: Vec<f64> = (0..20u8)
                    .map(|j| {
                        if i == j {
                            // Exclude the identity: `divergence` already
                            // decides whether a substitution happens.
                            0.0
                        } else {
                            BACKGROUND[j as usize] * (lambda * matrix.score(i, j) as f64).exp()
                        }
                    })
                    .collect();
                cumulative(&weights)
            })
            .collect();
        ConditionalModel { tables }
    }

    fn instance() -> &'static ConditionalModel {
        static MODEL: std::sync::OnceLock<ConditionalModel> = std::sync::OnceLock::new();
        MODEL.get_or_init(ConditionalModel::new)
    }

    #[inline]
    fn substitute(&self, rng: &mut SplitMix64, residue: u8) -> u8 {
        if residue >= 20 {
            return residue; // Leave ambiguity codes alone.
        }
        rng.weighted(&self.tables[residue as usize]) as u8
    }
}

/// Derive a homolog of `ancestor` under the mutation model.
///
/// Returns the mutated residues. Indels insert background-distributed
/// residues or delete a geometric-length run.
pub fn mutate_protein(rng: &mut SplitMix64, ancestor: &[u8], config: &MutationConfig) -> Vec<u8> {
    let model = ConditionalModel::instance();
    let background = cumulative(&BACKGROUND);
    let mut out = Vec::with_capacity(ancestor.len() + 8);
    let mut i = 0usize;
    while i < ancestor.len() {
        if config.indel_rate > 0.0 && rng.chance(config.indel_rate) {
            let mut len = 1usize;
            while rng.chance(config.indel_extend) && len < 30 {
                len += 1;
            }
            if rng.chance(0.5) {
                // Insertion of `len` background residues.
                for _ in 0..len {
                    out.push(rng.weighted(&background) as u8);
                }
                // Current residue handled on the next loop turn.
                continue;
            } else {
                // Deletion of `len` residues.
                i += len;
                continue;
            }
        }
        let c = ancestor[i];
        if c < 20 && config.divergence > 0.0 && rng.chance(config.divergence) {
            out.push(model.substitute(rng, c));
        } else {
            out.push(c);
        }
        i += 1;
    }
    out
}

/// Fractional identity between two equal-length residue slices (helper
/// for tests and the family generator's divergence bookkeeping).
pub fn identity(a: &[u8], b: &[u8]) -> f64 {
    if a.is_empty() || a.len() != b.len() {
        return 0.0;
    }
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protein::random_protein;

    fn rng() -> SplitMix64 {
        SplitMix64::new(42)
    }

    #[test]
    fn zero_divergence_is_identity() {
        let mut r = rng();
        let p = random_protein(&mut r, 300);
        let cfg = MutationConfig {
            divergence: 0.0,
            indel_rate: 0.0,
            indel_extend: 0.0,
        };
        assert_eq!(mutate_protein(&mut r, &p, &cfg), p);
    }

    #[test]
    fn divergence_controls_identity() {
        let mut r = rng();
        let p = random_protein(&mut r, 5000);
        let cfg = MutationConfig {
            divergence: 0.3,
            indel_rate: 0.0,
            indel_extend: 0.0,
        };
        let m = mutate_protein(&mut r, &p, &cfg);
        assert_eq!(m.len(), p.len());
        let id = identity(&p, &m);
        assert!((id - 0.7).abs() < 0.03, "identity {id}");
    }

    #[test]
    fn substitutions_prefer_similar_residues() {
        // Mutating isoleucine (9) should produce valine (19), leucine (10)
        // or methionine (12) far more often than proline (14).
        let mut r = rng();
        let ancestor = vec![9u8; 20_000];
        let cfg = MutationConfig {
            divergence: 1.0,
            indel_rate: 0.0,
            indel_extend: 0.0,
        };
        let m = mutate_protein(&mut r, &ancestor, &cfg);
        let count = |res: u8| m.iter().filter(|&&c| c == res).count();
        // Theory: q(V|I)/q(P|I) = (p_V/p_P)·e^{λ(s_IV - s_IP)} ≈ 8.3.
        assert!(
            count(19) > 6 * count(14).max(1),
            "V={} P={}",
            count(19),
            count(14)
        );
        assert!(count(10) > 5 * count(14).max(1));
        assert_eq!(count(9), 0, "identity excluded");
    }

    #[test]
    fn indels_change_length() {
        let mut r = rng();
        let p = random_protein(&mut r, 2000);
        let cfg = MutationConfig {
            divergence: 0.0,
            indel_rate: 0.05,
            indel_extend: 0.5,
        };
        let m = mutate_protein(&mut r, &p, &cfg);
        assert_ne!(m.len(), p.len());
    }

    #[test]
    fn ambiguity_codes_untouched() {
        let mut r = rng();
        let p = vec![22u8, 23, 22];
        let cfg = MutationConfig {
            divergence: 1.0,
            indel_rate: 0.0,
            indel_extend: 0.0,
        };
        assert_eq!(mutate_protein(&mut r, &p, &cfg), p);
    }

    #[test]
    fn identity_helper_edges() {
        assert_eq!(identity(&[], &[]), 0.0);
        assert_eq!(identity(&[1, 2], &[1]), 0.0);
        assert_eq!(identity(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(identity(&[1, 2], &[1, 3]), 0.5);
    }
}
