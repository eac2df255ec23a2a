//! Per-step timing, the data behind the paper's Tables 1 and 7.

use psc_align::KernelBackend;

/// Wall/simulated time spent in each pipeline step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepProfile {
    /// Step 1 (indexing both banks), wall seconds.
    pub step1: f64,
    /// Step 2 wall seconds — for software backends this is the real
    /// cost; for the RASC backend it is the *simulation's* wall cost and
    /// is excluded from the accelerated total.
    pub step2_wall: f64,
    /// Which software kernel backend scored step 2 (None when step 2 ran
    /// entirely on the simulated board).
    pub step2_kernel: Option<KernelBackend>,
    /// Step 2 simulated accelerator seconds (hardware cycles + DMA +
    /// sync), present only for the RASC backend.
    pub step2_accelerated: Option<f64>,
    /// Step 3 (gapped extension + reporting), wall seconds.
    pub step3: f64,
}

impl StepProfile {
    /// Effective step-2 cost: accelerated time when an accelerator ran,
    /// software wall time otherwise.
    pub fn step2(&self) -> f64 {
        self.step2_accelerated.unwrap_or(self.step2_wall)
    }

    /// Total pipeline time under the same accounting the paper uses
    /// (host steps measured, accelerated steps simulated).
    pub fn total(&self) -> f64 {
        self.step1 + self.step2() + self.step3
    }

    /// The three steps as `(name, wall seconds, accelerated seconds)`
    /// rows, the shape run reports serialize.
    pub fn rows(&self) -> [(&'static str, f64, Option<f64>); 3] {
        [
            ("step1", self.step1, None),
            ("step2", self.step2_wall, self.step2_accelerated),
            ("step3", self.step3, None),
        ]
    }

    /// Percentage breakdown `(step1, step2, step3)` — the paper's
    /// Table 1 (software) and Table 7 (RASC) rows.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.step1 / t * 100.0,
            self.step2() / t * 100.0,
            self.step3 / t * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_percentages_software() {
        let p = StepProfile {
            step1: 1.0,
            step2_wall: 97.0,
            step3: 2.0,
            ..StepProfile::default()
        };
        assert!((p.total() - 100.0).abs() < 1e-12);
        let (a, b, c) = p.percentages();
        assert!((a - 1.0).abs() < 1e-9);
        assert!((b - 97.0).abs() < 1e-9);
        assert!((c - 2.0).abs() < 1e-9);
    }

    #[test]
    fn accelerated_replaces_wall_in_total() {
        let p = StepProfile {
            step1: 1.0,
            step2_wall: 50.0, // simulation cost, ignored
            step2_accelerated: Some(0.5),
            step3: 2.0,
            ..StepProfile::default()
        };
        assert!((p.total() - 3.5).abs() < 1e-12);
        assert!((p.step2() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = StepProfile::default();
        assert_eq!(p.total(), 0.0);
        assert_eq!(p.percentages(), (0.0, 0.0, 0.0));
    }
}
