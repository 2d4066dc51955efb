//! Deterministic fault injection for supervisor tests.
//!
//! A [`FaultPlan`] names exactly which unit of work misbehaves: panic
//! while scanning the Nth fused trace group, panic while simulating the
//! Nth design, or fail the Nth checkpoint flush. Faults are keyed by the
//! unit's *index*, not by shared counters, so a plan fires identically
//! regardless of worker count or scheduling order — the property that
//! lets the suite assert bit-identity of every unaffected record.
//!
//! All trigger methods are no-ops unless the crate is built with the
//! `fault-injection` cargo feature; release binaries carry an inert,
//! zero-cost plan.

/// Which units of a supervised sweep should fail, and how.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic while the sweep runner scans this unit (trace-group) index.
    pub panic_group: Option<usize>,
    /// Panic while simulating this design index alone (fires on the
    /// per-design fallback path that retries a panicked bank).
    pub panic_design: Option<usize>,
    /// Report failure for this (0-based) checkpoint flush.
    pub fail_checkpoint_write: Option<usize>,
    /// Kill the worker running this `(shard, attempt)` mid-shard; the
    /// coordinator must observe the loss and retry within its budget.
    pub drop_worker: Option<(usize, u32)>,
    /// Stall liveness for this `(shard, attempt)`: the attempt reports a
    /// stale heartbeat (and dawdles) so straggler detection must fire a
    /// speculative re-dispatch that wins the race.
    pub stall_heartbeat: Option<(usize, u32)>,
    /// Flip a byte in this `(shard, attempt)`'s result stream before the
    /// coordinator validates it — must surface as a typed checkpoint
    /// rejection followed by a re-dispatch, never as merged garbage.
    pub corrupt_stream: Option<(usize, u32)>,
}

impl FaultPlan {
    /// A plan that injects nothing — the default for production sweeps.
    pub fn none() -> Self {
        Self::default()
    }

    /// Derives a reproducible plan from `seed`: one faulted group and one
    /// faulted design, chosen by an xorshift64 generator so suite tests
    /// can sweep many distinct fault sites without hand-picking indices.
    pub fn seeded(seed: u64, groups: usize, designs: usize) -> Self {
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Self {
            panic_group: (groups > 0).then(|| next() as usize % groups),
            panic_design: (designs > 0).then(|| next() as usize % designs),
            ..Self::default()
        }
    }

    /// Panics iff fault injection is compiled in and `group` is the
    /// planned group. Called by the sweep runner before scanning a bank.
    #[inline]
    pub fn maybe_panic_group(&self, group: usize) {
        if cfg!(feature = "fault-injection") && self.panic_group == Some(group) {
            panic!("injected fault: trace group {group}");
        }
    }

    /// Panics iff fault injection is compiled in and `design` is the
    /// planned design. Called before each single-design simulation.
    #[inline]
    pub fn maybe_panic_design(&self, design: usize) {
        if cfg!(feature = "fault-injection") && self.panic_design == Some(design) {
            panic!("injected fault: design {design}");
        }
    }

    /// True iff fault injection is compiled in and `flush` (0-based) is
    /// the planned checkpoint write to fail.
    #[inline]
    pub fn should_fail_checkpoint(&self, flush: usize) -> bool {
        cfg!(feature = "fault-injection") && self.fail_checkpoint_write == Some(flush)
    }

    /// True iff fault injection is compiled in and the worker executing
    /// `(shard, attempt)` should die mid-shard.
    #[inline]
    pub fn should_drop_worker(&self, shard: usize, attempt: u32) -> bool {
        cfg!(feature = "fault-injection") && self.drop_worker == Some((shard, attempt))
    }

    /// True iff fault injection is compiled in and `(shard, attempt)`'s
    /// heartbeat should read as stale to the coordinator.
    #[inline]
    pub fn should_stall_heartbeat(&self, shard: usize, attempt: u32) -> bool {
        cfg!(feature = "fault-injection") && self.stall_heartbeat == Some((shard, attempt))
    }

    /// True iff fault injection is compiled in and `(shard, attempt)`'s
    /// result stream should be corrupted before validation.
    #[inline]
    pub fn should_corrupt_stream(&self, shard: usize, attempt: u32) -> bool {
        cfg!(feature = "fault-injection") && self.corrupt_stream == Some((shard, attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic_and_in_range() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, 7, 100);
            let b = FaultPlan::seeded(seed, 7, 100);
            assert_eq!(a, b);
            assert!(a.panic_group.unwrap() < 7);
            assert!(a.panic_design.unwrap() < 100);
        }
    }

    #[test]
    fn seeded_handles_empty_dimensions() {
        let p = FaultPlan::seeded(3, 0, 0);
        assert_eq!(p.panic_group, None);
        assert_eq!(p.panic_design, None);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn triggers_fire_only_on_their_index() {
        let plan = FaultPlan {
            panic_group: Some(2),
            panic_design: Some(5),
            fail_checkpoint_write: Some(1),
            drop_worker: Some((3, 0)),
            stall_heartbeat: Some((1, 2)),
            corrupt_stream: Some((0, 1)),
        };
        plan.maybe_panic_group(1);
        plan.maybe_panic_design(4);
        assert!(!plan.should_fail_checkpoint(0));
        assert!(plan.should_fail_checkpoint(1));
        assert!(std::panic::catch_unwind(|| plan.maybe_panic_group(2)).is_err());
        assert!(std::panic::catch_unwind(|| plan.maybe_panic_design(5)).is_err());
        assert!(plan.should_drop_worker(3, 0));
        assert!(!plan.should_drop_worker(3, 1));
        assert!(plan.should_stall_heartbeat(1, 2));
        assert!(!plan.should_stall_heartbeat(2, 1));
        assert!(plan.should_corrupt_stream(0, 1));
        assert!(!plan.should_corrupt_stream(0, 0));
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn plan_is_inert_without_the_feature() {
        let plan = FaultPlan {
            panic_group: Some(0),
            panic_design: Some(0),
            fail_checkpoint_write: Some(0),
            drop_worker: Some((0, 0)),
            stall_heartbeat: Some((0, 0)),
            corrupt_stream: Some((0, 0)),
        };
        plan.maybe_panic_group(0);
        plan.maybe_panic_design(0);
        assert!(!plan.should_fail_checkpoint(0));
        assert!(!plan.should_drop_worker(0, 0));
        assert!(!plan.should_stall_heartbeat(0, 0));
        assert!(!plan.should_corrupt_stream(0, 0));
    }
}
