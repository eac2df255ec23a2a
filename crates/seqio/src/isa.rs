//! The instruction-set level that picks every vector body: a body runs
//! where [`Isa::host`], never above the CPU's level, is at the level
//! its `#[target_feature]` list needs.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering::*};

/// An instruction-set level; each holds the ones below it. A CPU with
/// AVX-512F but not BW (Knights Landing, and nothing since) is `Avx2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The target's baseline: SSE2 on x86-64, everything elsewhere.
    Portable,
    Avx2,
    /// AVX-512F and BW.
    Avx512,
    /// AVX-512F, BW and VBMI.
    Avx512Vbmi,
}

const LEVELS: [Isa; 4] = [Isa::Portable, Isa::Avx2, Isa::Avx512, Isa::Avx512Vbmi];

/// The host level's index in [`LEVELS`], past them until the first
/// read; and whether a [`cap`] is alive.
static HOST: AtomicU8 = AtomicU8::new(u8::MAX);
static CAPPED: AtomicBool = AtomicBool::new(false);

impl Isa {
    /// The CPU's level: each level is the one below it and a step.
    pub fn detected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        let steps = {
            use std::arch::is_x86_feature_detected as has;
            let avx512 = has!("avx512f") && has!("avx512bw");
            [has!("avx2"), avx512, has!("avx512vbmi")]
        };
        #[cfg(not(target_arch = "x86_64"))]
        let steps = [false; 3];
        LEVELS[steps.into_iter().take_while(|&step| step).count()]
    }

    /// The level pickers run at: the CPU's, or a live [`cap`]'s; one load.
    #[inline]
    pub fn host() -> Isa {
        match LEVELS.get(usize::from(HOST.load(Relaxed))) {
            Some(&level) => level,
            // The first read; a cap set meanwhile stands.
            None => {
                let _ = HOST.compare_exchange(u8::MAX, Isa::detected() as u8, Relaxed, Relaxed);
                Isa::host()
            }
        }
    }
}

/// [`Isa::detected`] and the levels below it, lowest first, for a test
/// to run `what` at each; stderr names each level the CPU lacks.
#[doc(hidden)]
pub fn levels(what: &str) -> Vec<Isa> {
    let (have, lack): (Vec<Isa>, _) = LEVELS.into_iter().partition(|&l| l <= Isa::detected());
    for level in lack {
        eprintln!("note: this CPU lacks {level:?}; {what} is not exercised there");
    }
    have
}

/// Hold [`Isa::host`] at most at `level` until the guard drops, so a
/// test runs what a host of that level runs. It only lowers the level:
/// a picked body still runs on a CPU that has it.
///
/// # Panics
/// If a cap is alive already: callers that run side by side lock.
#[doc(hidden)]
pub fn cap(level: Isa) -> CapGuard {
    // Acquire pairs with the Release of the last guard's drop, so its
    // restore of `HOST` is ordered before this cap's store.
    assert!(!CAPPED.swap(true, Acquire), "an ISA cap is already active");
    HOST.store(level.min(Isa::detected()) as u8, Relaxed);
    CapGuard(())
}

/// A live [`cap`]; its drop restores the CPU's level.
#[derive(Debug)]
#[must_use = "the cap ends when the guard drops"]
pub struct CapGuard(());

impl Drop for CapGuard {
    fn drop(&mut self) {
        HOST.store(Isa::detected() as u8, Relaxed);
        CAPPED.store(false, Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cap lowers the host level and never raises it, a second one is
    /// refused, and its drop restores the CPU's level. Prints the levels
    /// this host runs.
    #[test]
    fn a_cap_only_lowers_and_is_undone_on_drop() {
        let have = levels("a cap");
        println!("ISA levels on this host: {have:?}");
        for level in have.into_iter().chain([Isa::Avx512Vbmi]) {
            let guard = cap(level);
            assert_eq!(Isa::host(), level.min(Isa::detected()));
            assert!(std::panic::catch_unwind(|| cap(Isa::Portable)).is_err());
            drop(guard);
            assert_eq!(Isa::host(), Isa::detected());
        }
    }
}
