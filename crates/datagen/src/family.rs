//! Protein families with known membership.
//!
//! The paper's Table 6 scores sensitivity/selectivity (ROC50, AP-Mean)
//! against a human-annotated benchmark of 102 queries vs the yeast
//! genome. Offline we synthesise the equivalent: families of proteins
//! descended from a common ancestor, where "same family" is the ground
//! truth that the annotation provided.

use psc_seqio::prng::SplitMix64;
use psc_seqio::{Bank, Seq};

use crate::mutate::{mutate_protein, MutationConfig};
use crate::protein::random_protein;

/// Configuration for family generation.
#[derive(Clone, Debug)]
pub struct FamilyConfig {
    /// Number of families (the paper's benchmark has 102 queries).
    pub family_count: usize,
    /// Members per family (including the query/ancestor representative).
    pub members_per_family: usize,
    /// Ancestor length range.
    pub min_len: usize,
    pub max_len: usize,
    /// Mutation from ancestor to each member; larger divergence makes the
    /// benchmark harder and separates sensitive from insensitive tools.
    pub mutation: MutationConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FamilyConfig {
    fn default() -> Self {
        FamilyConfig {
            family_count: 102,
            members_per_family: 6,
            min_len: 150,
            max_len: 400,
            mutation: MutationConfig {
                divergence: 0.45,
                indel_rate: 0.01,
                indel_extend: 0.4,
            },
            seed: 0xfa31,
        }
    }
}

/// One generated family.
#[derive(Clone, Debug)]
pub struct Family {
    /// Family identifier (index).
    pub id: usize,
    /// The query representative (a lightly mutated copy of the ancestor,
    /// so it is not trivially identical to members).
    pub query: Seq,
    /// Member proteins (ground-truth true positives for the query).
    pub members: Vec<Seq>,
}

/// Generate families per the configuration.
///
/// Returns the families; `Family::members` of *other* families serve as
/// ground-truth false positives for a query.
pub fn generate_families(config: &FamilyConfig) -> Vec<Family> {
    let mut rng = SplitMix64::new(config.seed);
    let query_mutation = MutationConfig {
        divergence: (config.mutation.divergence * 0.5).min(0.25),
        ..config.mutation.clone()
    };
    (0..config.family_count)
        .map(|id| {
            let len = rng.range(config.min_len..=config.max_len);
            let ancestor = random_protein(&mut rng, len);
            let query_res = mutate_protein(&mut rng, &ancestor, &query_mutation);
            let query = Seq::from_codes(
                format!("fam{id:03}_query"),
                query_res,
                psc_seqio::SeqKind::Protein,
            );
            let members = (0..config.members_per_family)
                .map(|m| {
                    let res = mutate_protein(&mut rng, &ancestor, &config.mutation);
                    Seq::from_codes(
                        format!("fam{id:03}_m{m:02}"),
                        res,
                        psc_seqio::SeqKind::Protein,
                    )
                })
                .collect();
            Family { id, query, members }
        })
        .collect()
}

/// Flatten family members (not queries) into one bank; sequence ids keep
/// the `famNNN_` prefix so membership can be recovered from the id.
pub fn members_bank(families: &[Family]) -> Bank {
    families
        .iter()
        .flat_map(|f| f.members.iter().cloned())
        .collect()
}

/// Recover the family id encoded in a member/query sequence id.
pub fn family_of(seq_id: &str) -> Option<usize> {
    seq_id.strip_prefix("fam")?.split('_').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::identity;

    fn small_config() -> FamilyConfig {
        FamilyConfig {
            family_count: 5,
            members_per_family: 3,
            min_len: 100,
            max_len: 150,
            ..Default::default()
        }
    }

    #[test]
    fn generates_requested_shape() {
        let fams = generate_families(&small_config());
        assert_eq!(fams.len(), 5);
        for (i, f) in fams.iter().enumerate() {
            assert_eq!(f.id, i);
            assert_eq!(f.members.len(), 3);
            assert!(f.query.len() >= 60); // indels may shrink it slightly
        }
    }

    #[test]
    fn members_related_to_query_strangers_not() {
        let fams = generate_families(&FamilyConfig {
            family_count: 2,
            members_per_family: 2,
            min_len: 300,
            max_len: 300,
            mutation: MutationConfig {
                divergence: 0.3,
                indel_rate: 0.0,
                indel_extend: 0.0,
            },
            seed: 77,
        });
        // Same family: identity clearly above random (~5%).
        let q = &fams[0].query.residues;
        let m = &fams[0].members[0].residues;
        assert!(identity(q, m) > 0.4, "within-family identity too low");
        // Different family: near random identity.
        let other = &fams[1].members[0].residues;
        let len = q.len().min(other.len());
        assert!(identity(&q[..len], &other[..len]) < 0.15);
    }

    #[test]
    fn members_bank_and_family_recovery() {
        let fams = generate_families(&small_config());
        let bank = members_bank(&fams);
        assert_eq!(bank.len(), 15);
        for (_, s) in bank.iter() {
            let fam = family_of(&s.id).expect("id encodes family");
            assert!(fam < 5);
        }
        assert_eq!(family_of("fam042_m01"), Some(42));
        assert_eq!(family_of("fam042_query"), Some(42));
        assert_eq!(family_of("prot000001"), None);
    }

    #[test]
    fn deterministic() {
        let a = generate_families(&small_config());
        let b = generate_families(&small_config());
        assert_eq!(a[2].query.residues, b[2].query.residues);
        assert_eq!(a[4].members[1].residues, b[4].members[1].residues);
    }
}
