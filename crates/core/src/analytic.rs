//! The analytic fast path: trace groups resolved in closed form.
//!
//! A trace group is one kernel trace plus the bank of designs replaying
//! it. [`try_group_records`] attempts to produce that bank's records
//! *without* replay, using the exact per-class calculator in
//! [`analysis::exact`]: if the group's trace is read-only and every
//! design either never evicts or never re-references an evicted line,
//! the full simulator report (counters and both buses) follows in closed
//! form, and the records — built through the same
//! [`Evaluator::evaluate_bank_reports`] tail as replayed groups — are
//! bit-identical to simulation. The attempt is only made when every
//! design in the bank could hold the kernel's whole array footprint.
//!
//! No sweep or search calls this module: every record comes from a
//! banked replay. It is reached only by memxbench's staged `paper_sweep`
//! run and by its oracle test, and goes when that benchmark stops
//! calling it.

use crate::metrics::{CacheDesign, Evaluator, Record};
use analysis::exact::{exact_report, profile_read_class, ClassProfile};
use loopir::Kernel;
use memsim::{SimReport, TraceEvent};

/// Total bytes of every array the kernel declares — the capacity gate
/// for attempting analytic classification.
pub fn kernel_footprint_bytes(kernel: &Kernel) -> u64 {
    kernel.arrays.iter().map(|a| a.byte_size() as u64).sum()
}

/// The capacity gate of [`try_group_records`]: whether it can return
/// records for `bank` at all, i.e. the bank is non-empty and every design
/// could hold the kernel's whole `footprint`.
fn gate_admits(footprint: u64, bank: &[(CacheDesign, bool)]) -> bool {
    !bank.is_empty() && bank.iter().all(|(d, _)| d.cache_size as u64 >= footprint)
}

/// Attempts to resolve a whole trace group in closed form. Returns the
/// bank's records (input order, bit-identical to replay) when *every*
/// design classifies analytic-exact; `None` sends the group to the
/// replay engine.
pub fn try_group_records(
    evaluator: &Evaluator,
    footprint: u64,
    bank: &[(CacheDesign, bool)],
    trace: &[TraceEvent],
) -> Option<Vec<Record>> {
    if !gate_admits(footprint, bank) {
        return None;
    }
    let mut profiles: Vec<(usize, ClassProfile)> = Vec::new();
    let mut reports: Vec<SimReport> = Vec::with_capacity(bank.len());
    for (d, _) in bank {
        let config = d.cache_config().ok()?;
        let class = match profiles.iter().position(|(line, _)| *line == d.line) {
            Some(i) => i,
            None => {
                let profile = profile_read_class(trace, d.line, evaluator.bus_encoding)?;
                profiles.push((d.line, profile));
                profiles.len() - 1
            }
        };
        reports.push(exact_report(&profiles[class].1, config)?);
    }
    Some(evaluator.evaluate_bank_reports(bank, &reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::read_trace;
    use loopir::{kernels, DataLayout};

    #[test]
    fn footprint_sums_all_arrays() {
        // matadd(6): three 6x6 arrays of 4 B elements.
        assert_eq!(kernel_footprint_bytes(&kernels::matadd(6)), 3 * 36 * 4);
    }

    #[test]
    fn ample_group_matches_replay_bit_for_bit() {
        let k = kernels::matadd(8);
        let layout = DataLayout::natural(&k);
        let trace = read_trace(&k, &layout);
        let eval = Evaluator::default();
        let footprint = kernel_footprint_bytes(&k);
        let bank: Vec<(CacheDesign, bool)> = [1usize, 2, 4]
            .iter()
            .map(|&s| (CacheDesign::new(4096, 16, s, 1), false))
            .collect();
        let analytic =
            try_group_records(&eval, footprint, &bank, &trace).expect("ample caches classify");
        let replayed = eval.evaluate_bank_with_trace(&bank, &trace);
        assert_eq!(analytic, replayed);
    }

    #[test]
    fn small_caches_are_gated_out() {
        let k = kernels::matadd(8);
        let layout = DataLayout::natural(&k);
        let trace = read_trace(&k, &layout);
        let eval = Evaluator::default();
        let footprint = kernel_footprint_bytes(&k);
        let bank = vec![
            (CacheDesign::new(4096, 16, 1, 1), false),
            (CacheDesign::new(64, 16, 1, 1), false), // below the footprint
        ];
        assert!(try_group_records(&eval, footprint, &bank, &trace).is_none());
    }
}
