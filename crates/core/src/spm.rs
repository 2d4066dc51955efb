//! Scratchpad-memory (SPM) partitioning — the companion technique of the
//! paper's own reference \[2\] (Panda, Dutt & Nicolau, ISSS'97).
//!
//! Instead of letting every array contend for the cache, part of the on-chip
//! budget can be a directly-addressed scratchpad holding the most profitable
//! arrays: SPM accesses never miss, cost one cycle, and burn only the cell
//! array (no tags, no miss path). The remaining arrays go through a smaller
//! cache. This module:
//!
//! * counts per-array read traffic ([`array_read_counts`]),
//! * picks the array subset maximising diverted traffic under the SPM
//!   capacity (exact subset enumeration — kernels have a handful of arrays),
//! * evaluates a (SPM size, cache design) split end-to-end
//!   ([`evaluate_split`]), and
//! * sweeps the on-chip budget across SPM/cache splits
//!   ([`explore_split`]).
//!
//! # Example
//!
//! ```
//! use loopir::kernels;
//! use memexplore::spm::{best_split, explore_split};
//! use memexplore::Evaluator;
//!
//! // Dequant's qtable fits a small scratchpad and is reused every block.
//! let kernel = kernels::dequant(31);
//! let records = explore_split(&kernel, 4096, &Evaluator::default());
//! assert!(!records.is_empty());
//! let best = best_split(&records).expect("non-empty");
//! assert!(best.energy_nj > 0.0);
//! ```

use crate::explore::{pow2_range, DesignSpace, Explorer};
use crate::metrics::{CacheDesign, Evaluator};
use crate::select;
use loopir::{AccessKind, ArrayId, Kernel, TraceGen};
use memsim::{Simulator, TraceEvent};

/// Per-array read traffic of one kernel execution.
///
/// Returned in `ArrayId` order; counts come from the exact trace.
pub fn array_read_counts(kernel: &Kernel) -> Vec<(ArrayId, u64)> {
    let layout = loopir::DataLayout::natural(kernel);
    let mut counts = vec![0u64; kernel.arrays.len()];
    for a in TraceGen::new(kernel, &layout) {
        if a.kind == AccessKind::Read {
            counts[a.array.0] += 1;
        }
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (ArrayId(i), c))
        .collect()
}

/// Which arrays live in the scratchpad.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpmAssignment {
    /// Arrays placed in the SPM.
    pub arrays: Vec<ArrayId>,
    /// Bytes of SPM they occupy.
    pub bytes_used: u64,
    /// Read accesses diverted from the cache per kernel execution.
    pub diverted_reads: u64,
}

/// Chooses the array subset with maximum diverted reads that fits in
/// `spm_bytes` (exact enumeration over the ≤ 2^n subsets; kernels declare a
/// handful of arrays). Ties prefer fewer bytes.
pub fn choose_arrays(kernel: &Kernel, spm_bytes: u64) -> SpmAssignment {
    let counts = array_read_counts(kernel);
    let sizes: Vec<u64> = kernel.arrays.iter().map(|a| a.byte_size() as u64).collect();
    let n = kernel.arrays.len();
    assert!(n <= 20, "subset enumeration caps at 20 arrays");
    let mut best = SpmAssignment {
        arrays: Vec::new(),
        bytes_used: 0,
        diverted_reads: 0,
    };
    for mask in 0u32..(1 << n) {
        let mut bytes = 0u64;
        let mut reads = 0u64;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                bytes += sizes[i];
                reads += counts[i].1;
            }
        }
        if bytes <= spm_bytes
            && (reads > best.diverted_reads
                || (reads == best.diverted_reads && bytes < best.bytes_used))
        {
            best = SpmAssignment {
                arrays: (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(ArrayId)
                    .collect(),
                bytes_used: bytes,
                diverted_reads: reads,
            };
        }
    }
    best
}

/// One evaluated SPM/cache split.
#[derive(Clone, Debug)]
pub struct SpmRecord {
    /// SPM capacity in bytes.
    pub spm_bytes: u64,
    /// The arrays assigned to it.
    pub assignment: SpmAssignment,
    /// The cache side's design.
    pub cache_design: CacheDesign,
    /// Cache-side read miss rate.
    pub cache_miss_rate: f64,
    /// Total cycles (cache side + one per SPM read).
    pub cycles: f64,
    /// Total energy in nanojoules.
    pub energy_nj: f64,
}

/// Energy of one SPM read (nanojoules): the cell array of an `spm_bytes`
/// SRAM under the paper's `β·8·T` picojoule model — no tag or miss path.
pub fn spm_read_energy_nj(spm_bytes: u64) -> f64 {
    2.0 * 8.0 * spm_bytes as f64 / 1000.0
}

/// Evaluates one (SPM size, cache design) split: SPM arrays never touch the
/// cache; the rest are simulated through it with the evaluator's layout.
pub fn evaluate_split(
    kernel: &Kernel,
    spm_bytes: u64,
    cache_design: CacheDesign,
    evaluator: &Evaluator,
) -> SpmRecord {
    let assignment = choose_arrays(kernel, spm_bytes);
    let (layout, _) = evaluator.layout_for(kernel, cache_design.cache_size, cache_design.line);
    let config = cache_design
        .cache_config()
        .unwrap_or_else(|e| panic!("invalid design {cache_design}: {e}"));

    let mut sim = Simulator::with_options(config, evaluator.bus_encoding, false);
    let mut spm_reads = 0u64;
    for a in TraceGen::new(kernel, &layout).filter(|a| a.kind == AccessKind::Read) {
        if assignment.arrays.contains(&a.array) {
            spm_reads += 1;
        } else {
            sim.step(TraceEvent::read(a.addr, a.size));
        }
    }
    let report = sim.into_report();
    let cache_cycles = evaluator.cycle_model.cycles_from_counts(
        report.stats.read_hits,
        report.stats.read_misses(),
        cache_design.assoc,
        cache_design.line,
        cache_design.tiling,
    );
    let cache_energy = evaluator.energy_model.trace_energy_nj(&report);
    SpmRecord {
        spm_bytes,
        assignment,
        cache_design,
        cache_miss_rate: report.stats.read_miss_rate(),
        cycles: cache_cycles + spm_reads as f64,
        energy_nj: cache_energy + spm_reads as f64 * spm_read_energy_nj(spm_bytes),
    }
}

/// Sweeps SPM/cache splits of `total_budget` bytes: for each power-of-two
/// SPM share (including zero), the cache side is swept over the paper's
/// space capped at the remaining budget, and the minimum-energy cache design
/// is paired with the share.
///
/// # Panics
///
/// Panics if `total_budget < 32` or is not a power of two.
pub fn explore_split(
    kernel: &Kernel,
    total_budget: usize,
    evaluator: &Evaluator,
) -> Vec<SpmRecord> {
    assert!(
        total_budget >= 32 && total_budget.is_power_of_two(),
        "budget must be a power of two of at least 32 bytes"
    );
    let explorer = Explorer::new(evaluator.clone());
    let mut out = Vec::new();
    let mut spm_share = 0usize;
    loop {
        let remainder = total_budget - spm_share;
        if remainder < 16 {
            break;
        }
        let d_cap = if remainder.is_power_of_two() {
            remainder
        } else {
            remainder.next_power_of_two() / 2
        };
        let space = DesignSpace {
            cache_sizes: pow2_range(16, d_cap),
            ..DesignSpace::paper()
        };
        let records = explorer.explore(kernel, &space);
        if let Some(best) = select::min_energy(&records) {
            out.push(evaluate_split(
                kernel,
                spm_share as u64,
                best.design,
                evaluator,
            ));
        }
        spm_share = if spm_share == 0 { 16 } else { spm_share * 2 };
        if spm_share >= total_budget {
            break;
        }
    }
    out
}

/// The minimum-energy split of a sweep.
pub fn best_split(records: &[SpmRecord]) -> Option<&SpmRecord> {
    records
        .iter()
        .min_by(|a, b| a.energy_nj.partial_cmp(&b.energy_nj).expect("finite"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopir::kernels;

    #[test]
    fn read_counts_match_reference_structure() {
        // Dequant reads coeff and qtable once per iteration, never out.
        let counts = array_read_counts(&kernels::dequant(31));
        assert_eq!(counts[0].1, 961);
        assert_eq!(counts[1].1, 961);
        assert_eq!(counts[2].1, 0);
    }

    #[test]
    fn chooser_is_an_exact_knapsack() {
        // FIR: x is large and hot (n*taps reads), h is tiny and hot, y cold.
        let kernel = kernels::fir(64, 16);
        // Budget for h (64 B) but not x: picks h.
        let a = choose_arrays(&kernel, 100);
        assert_eq!(a.arrays, vec![ArrayId(1)]);
        assert_eq!(a.diverted_reads, 64 * 16);
        // Unlimited budget: everything with reads goes in.
        let all = choose_arrays(&kernel, 1 << 20);
        assert!(all.diverted_reads >= 2 * 64 * 16);
    }

    #[test]
    fn spm_diverts_traffic_and_lowers_cache_pressure() {
        let kernel = kernels::dequant(31);
        let eval = Evaluator::default();
        let d = CacheDesign::new(64, 8, 1, 1);
        let no_spm = evaluate_split(&kernel, 0, d, &eval);
        let with_spm = evaluate_split(&kernel, 4096, d, &eval);
        assert_eq!(no_spm.assignment.diverted_reads, 0);
        assert!(with_spm.assignment.diverted_reads > 0);
        assert!(with_spm.cycles < no_spm.cycles);
    }

    #[test]
    fn split_sweep_covers_zero_and_power_of_two_shares() {
        let kernel = kernels::matadd(6);
        let records = explore_split(&kernel, 256, &Evaluator::default());
        let shares: Vec<u64> = records.iter().map(|r| r.spm_bytes).collect();
        assert!(shares.contains(&0));
        assert!(shares.iter().all(|&s| s == 0 || s.is_power_of_two()));
        assert!(best_split(&records).is_some());
    }

    #[test]
    fn spm_energy_scales_with_its_size() {
        assert!(spm_read_energy_nj(1024) > spm_read_energy_nj(64));
        assert!((spm_read_energy_nj(64) - 1.024).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_budget_panics() {
        let _ = explore_split(&kernels::matadd(6), 100, &Evaluator::default());
    }
}
