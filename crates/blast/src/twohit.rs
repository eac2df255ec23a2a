//! Per-diagonal bookkeeping for the two-hit rule.
//!
//! BLAST's two-hit heuristic: an ungapped extension is only triggered
//! when two non-overlapping word hits occur on the same `(query,
//! diagonal)` within `window` residues. The tracker also remembers how
//! far the last extension reached on a diagonal, so hits inside an
//! already-explored region do not re-trigger.
//!
//! Like NCBI's `diag_array`, the state lives in one flat array indexed
//! by `subject_offset − concatenated_query_offset + query_total` (all
//! queries share one coordinate space, so a diagonal is automatically
//! unique per query), and "clearing" between subject sequences is an
//! epoch bump — the scan loop never touches a hash map or a memset.

/// Decision for one incoming word hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitAction {
    /// First recent hit on the diagonal: remember it, do nothing.
    Record,
    /// Second hit within the window: extend now.
    Trigger,
    /// Inside a region an extension already covered: drop.
    Covered,
}

#[derive(Clone, Copy, Debug)]
struct DiagState {
    epoch: u32,
    last_hit: i32,
    covered_to: i32,
}

const STALE: DiagState = DiagState {
    epoch: 0,
    last_hit: i32::MIN / 2,
    covered_to: i32::MIN / 2,
};

/// Two-hit tracker for a scan of subject sequences against a
/// concatenated query space of `query_total` residues.
#[derive(Debug)]
pub struct TwoHitTracker {
    window: i32,
    word_len: i32,
    query_total: usize,
    epoch: u32,
    diags: Vec<DiagState>,
}

impl TwoHitTracker {
    /// `query_total` is the summed residue count of all queries (the
    /// concatenated coordinate space word sites are expressed in).
    pub fn new(window: usize, word_len: usize, query_total: usize) -> TwoHitTracker {
        TwoHitTracker {
            window: window as i32,
            word_len: word_len as i32,
            query_total,
            epoch: 1,
            diags: Vec::new(),
        }
    }

    /// Forget everything (call between subject sequences) — O(1).
    pub fn reset(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn slot(&mut self, qconcat: u32, spos: u32) -> &mut DiagState {
        let idx = spos as usize + self.query_total - qconcat as usize;
        if idx >= self.diags.len() {
            self.diags.resize(idx + 1024, STALE);
        }
        let slot = &mut self.diags[idx];
        if slot.epoch != self.epoch {
            *slot = DiagState {
                epoch: self.epoch,
                ..STALE
            };
        }
        slot
    }

    /// Process a word hit at concatenated query offset `qconcat`,
    /// subject offset `spos`.
    #[inline]
    pub fn on_hit(&mut self, qconcat: u32, spos: u32) -> HitAction {
        let (window, word_len) = (self.window, self.word_len);
        let entry = self.slot(qconcat, spos);
        let s = spos as i32;
        if s < entry.covered_to {
            return HitAction::Covered;
        }
        let gap = s - entry.last_hit;
        if gap < word_len {
            // Overlaps the remembered hit: ignore, keep the older anchor
            // (NCBI semantics — refreshing here would let a run of
            // consecutive hits starve the trigger forever).
            HitAction::Record
        } else if gap <= window {
            // Second, non-overlapping hit inside the window.
            entry.last_hit = s;
            HitAction::Trigger
        } else {
            entry.last_hit = s;
            HitAction::Record
        }
    }

    /// Mark a diagonal as explored up to `covered_to` (exclusive subject
    /// offset) after an extension.
    pub fn mark_covered(&mut self, qconcat: u32, spos: u32, covered_to: u32) {
        let entry = self.slot(qconcat, spos);
        entry.covered_to = entry.covered_to.max(covered_to as i32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> TwoHitTracker {
        TwoHitTracker::new(40, 3, 1000)
    }

    #[test]
    fn two_hits_required() {
        let mut t = tracker();
        assert_eq!(t.on_hit(100, 10), HitAction::Record);
        assert_eq!(t.on_hit(105, 15), HitAction::Trigger); // same diag
    }

    #[test]
    fn overlapping_second_hit_does_not_trigger() {
        let mut t = tracker();
        assert_eq!(t.on_hit(100, 10), HitAction::Record);
        // Distance 2 < word_len 3: overlapping, ignored (anchor stays 10).
        assert_eq!(t.on_hit(102, 12), HitAction::Record);
        // Distance 3 from the *original* anchor: triggers.
        assert_eq!(t.on_hit(103, 13), HitAction::Trigger);
    }

    #[test]
    fn distant_second_hit_restarts() {
        let mut t = tracker();
        assert_eq!(t.on_hit(100, 10), HitAction::Record);
        assert_eq!(t.on_hit(190, 100), HitAction::Record); // > window
        assert_eq!(t.on_hit(195, 105), HitAction::Trigger);
    }

    #[test]
    fn different_diagonals_independent() {
        let mut t = tracker();
        assert_eq!(t.on_hit(100, 10), HitAction::Record); // diag -90
        assert_eq!(t.on_hit(100, 20), HitAction::Record); // diag -80
        assert_eq!(t.on_hit(900, 15), HitAction::Record); // other query region
        assert_eq!(t.on_hit(105, 15), HitAction::Trigger); // diag -90 again
    }

    #[test]
    fn covered_region_suppresses() {
        let mut t = tracker();
        t.on_hit(100, 10);
        t.on_hit(105, 15);
        t.mark_covered(105, 15, 60);
        assert_eq!(t.on_hit(120, 30), HitAction::Covered);
        assert_eq!(t.on_hit(155, 65), HitAction::Record); // past cover
    }

    #[test]
    fn reset_forgets() {
        let mut t = tracker();
        t.on_hit(100, 10);
        t.reset();
        assert_eq!(t.on_hit(105, 15), HitAction::Record);
    }

    #[test]
    fn extreme_diagonals_addressable() {
        let mut t = tracker();
        // qconcat at the end of the query space, spos 0 → index 0.
        assert_eq!(t.on_hit(1000, 0), HitAction::Record);
        // qconcat 0, huge spos → large index (forces growth); the second
        // hit advances both coordinates to stay on the same diagonal.
        assert_eq!(t.on_hit(0, 100_000), HitAction::Record);
        assert_eq!(t.on_hit(5, 100_005), HitAction::Trigger);
    }
}
