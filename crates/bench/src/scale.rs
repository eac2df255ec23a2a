//! Experiment scale: the 1:3:10:30 bank ladder against one genome.

/// Workload dimensions for the experiment ladder.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Genome length in nucleotides (paper: 220 × 10⁶).
    pub genome_nt: usize,
    /// Protein counts of the four banks (paper: 1 000 / 3 000 / 10 000 /
    /// 30 000). Banks are nested prefixes of one draw, mirroring how the
    /// paper's banks are nested subsets of nr.
    pub bank_counts: [usize; 4],
    /// Genes planted into the genome (homology the search must find;
    /// chr1 vs nr is full of it).
    pub planted_genes: usize,
    /// Base RNG seed for the whole workload.
    pub seed: u64,
}

impl Scale {
    /// The default experiment scale (≈1/20 of the paper's residue
    /// counts; a full `experiments all` run takes minutes on one core).
    pub fn full() -> Scale {
        Scale {
            genome_nt: 200_000,
            bank_counts: [50, 150, 500, 1500],
            planted_genes: 120,
            seed: 0x9a9e,
        }
    }

    /// A fast smoke-test scale for development.
    pub fn quick() -> Scale {
        Scale {
            genome_nt: 60_000,
            bank_counts: [15, 45, 150, 450],
            planted_genes: 20,
            seed: 0x9a9e,
        }
    }

    /// Human-readable labels for the ladder rows, in the paper's style.
    pub fn labels(&self) -> [String; 4] {
        let f = |n: usize| {
            if n >= 1000 {
                // Shortest decimal: 1500 is "1.5K", 3000 is "3K".
                format!("{}K protein", n as f64 / 1000.0)
            } else {
                format!("{n} protein")
            }
        };
        [
            f(self.bank_counts[0]),
            f(self.bank_counts[1]),
            f(self.bank_counts[2]),
            f(self.bank_counts[3]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_keeps_paper_ratios() {
        for s in [Scale::full(), Scale::quick()] {
            let [a, b, c, d] = s.bank_counts;
            assert_eq!(b, 3 * a);
            assert_eq!(c, 10 * a);
            assert_eq!(d, 30 * a);
        }
    }

    #[test]
    fn labels_format() {
        let s = Scale::full();
        assert_eq!(s.labels()[3], "1.5K protein");
        assert_eq!(s.labels()[0], "50 protein");
        let paper = Scale {
            bank_counts: [1000, 3000, 10_000, 30_000],
            ..s
        };
        assert_eq!(
            paper.labels(),
            ["1K protein", "3K protein", "10K protein", "30K protein"]
        );
    }
}
