//! Integration tests for the beyond-the-paper extensions: scratchpad
//! partitioning and the I-cache budget split.

use icache::explore::best_joint_split;
use icache::stream::InstructionStream;
use loopir::kernels;
use memexplore::spm::{best_split, choose_arrays, evaluate_split, explore_split};
use memexplore::{CacheDesign, Evaluator};

#[test]
fn spm_beats_cache_only_for_fir_coefficients() {
    // The textbook scratchpad case: a 64 B coefficient table read every
    // iteration. Diverting it must reduce both cycles and energy.
    let kernel = kernels::fir(256, 16);
    let eval = Evaluator::default();
    let records = explore_split(&kernel, 4096, &eval);
    let zero = records
        .iter()
        .find(|r| r.spm_bytes == 0)
        .expect("sweep includes the no-SPM point");
    let best = best_split(&records).expect("non-empty sweep");
    assert!(best.spm_bytes > 0, "some scratchpad must win for FIR");
    assert!(best.energy_nj < zero.energy_nj);
    assert!(best.cycles < zero.cycles);
    // The winning assignment holds the coefficient array.
    let names: Vec<&str> = best
        .assignment
        .arrays
        .iter()
        .map(|&a| kernel.array(a).name.as_str())
        .collect();
    assert!(names.contains(&"h"), "{names:?}");
}

#[test]
fn spm_oversizing_wastes_energy() {
    // Once the profitable arrays fit, a bigger SPM only raises the
    // per-access cell energy.
    let kernel = kernels::fir(256, 16);
    let eval = Evaluator::default();
    let d = CacheDesign::new(128, 16, 1, 1);
    let right = evaluate_split(&kernel, 64, d, &eval);
    let oversized = evaluate_split(&kernel, 1024, d, &eval);
    assert_eq!(
        right.assignment.diverted_reads,
        oversized.assignment.diverted_reads
    );
    assert!(right.energy_nj < oversized.energy_nj);
}

#[test]
fn spm_assignment_is_stable_and_exact() {
    let kernel = kernels::dequant(31);
    // qtable is 31*31*4 = 3844 B; only a 4 KiB SPM can take it.
    let small = choose_arrays(&kernel, 1024);
    assert!(small.arrays.is_empty());
    let large = choose_arrays(&kernel, 8192);
    assert!(!large.arrays.is_empty());
    assert!(large.diverted_reads > 0);
}

#[test]
fn icache_joint_split_composes_with_the_mpeg_kernels() {
    // Every MPEG kernel gets a sensible joint split: tiny code footprints
    // mean the I-share never exceeds 256 B.
    for (kernel, _) in mpeg::decoder().components.iter().take(3) {
        let stream = InstructionStream::for_kernel(kernel, 0x8000);
        let best = best_joint_split(kernel, &stream, 512).expect("some split works");
        let (i_share, _) = best.split();
        assert!(
            i_share as u64 >= stream.footprint_bytes().next_power_of_two() / 2,
            "{}: I-cache {} too small for {} B of code",
            kernel.name,
            i_share,
            stream.footprint_bytes()
        );
        assert!(best.instruction.miss_rate < 0.05, "{}", kernel.name);
    }
}
