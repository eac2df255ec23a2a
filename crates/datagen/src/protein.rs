//! Random protein generation with realistic residue composition.

use psc_seqio::prng::{cumulative, SplitMix64};
use psc_seqio::{Bank, Seq};

/// Background residue composition used by all generators (Robinson &
/// Robinson 1991, the same background `psc-score` uses for statistics).
pub(crate) const BACKGROUND: [f64; 20] = psc_score::ROBINSON_FREQS;

/// Configuration for a random protein bank.
#[derive(Clone, Debug)]
pub struct BankConfig {
    /// Number of proteins.
    pub count: usize,
    /// Minimum protein length (inclusive).
    pub min_len: usize,
    /// Maximum protein length (inclusive). The paper's banks average
    /// ≈ 336 aa per protein; the default 100–600 range reproduces that.
    pub max_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            count: 1000,
            min_len: 100,
            max_len: 600,
            seed: 0x5eed,
        }
    }
}

/// Sample one random protein of the given length.
pub fn random_protein(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let background = cumulative(&BACKGROUND);
    (0..len).map(|_| rng.weighted(&background) as u8).collect()
}

/// Generate a bank of random proteins per the configuration.
pub fn random_bank(config: &BankConfig) -> Bank {
    let mut rng = SplitMix64::new(config.seed);
    (0..config.count)
        .map(|i| {
            let len = rng.range(config.min_len..=config.max_len);
            let residues = random_protein(&mut rng, len);
            Seq::from_codes(format!("prot{i:06}"), residues, psc_seqio::SeqKind::Protein)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_respects_config() {
        let cfg = BankConfig {
            count: 50,
            min_len: 10,
            max_len: 20,
            seed: 1,
        };
        let bank = random_bank(&cfg);
        assert_eq!(bank.len(), 50);
        for (_, s) in bank.iter() {
            assert!(s.len() >= 10 && s.len() <= 20);
            assert!(s.residues.iter().all(|&c| c < 20));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = BankConfig::default();
        let a = random_bank(&BankConfig {
            count: 5,
            ..cfg.clone()
        });
        let b = random_bank(&BankConfig { count: 5, ..cfg });
        for i in 0..5 {
            assert_eq!(a.get(i).residues, b.get(i).residues);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_bank(&BankConfig {
            count: 1,
            min_len: 200,
            max_len: 200,
            seed: 1,
        });
        let b = random_bank(&BankConfig {
            count: 1,
            min_len: 200,
            max_len: 200,
            seed: 2,
        });
        assert_ne!(a.get(0).residues, b.get(0).residues);
    }

    #[test]
    fn composition_tracks_background() {
        let mut rng = SplitMix64::new(7);
        let p = random_protein(&mut rng, 200_000);
        let mut counts = [0usize; 20];
        for &c in &p {
            counts[c as usize] += 1;
        }
        // Leucine (index 10) is the most common residue at ~9%.
        let leu = counts[10] as f64 / p.len() as f64;
        assert!((leu - 0.09019).abs() < 0.005, "leu {leu}");
        // Tryptophan (17) the rarest at ~1.3%.
        let trp = counts[17] as f64 / p.len() as f64;
        assert!((trp - 0.0133).abs() < 0.003, "trp {trp}");
    }
}
